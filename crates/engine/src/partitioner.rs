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
//! with one entry point, `scatter`, under every shuffle. It takes the
//! shuffle's input partitions as `Part`s (records moved out of owned ones,
//! cloned once out of shared ones) and a destination rule: a record and its
//! position across all inputs give its bucket — the key's hash for a by-key
//! shuffle, the position modulo the partition count for `repartition`. It
//! produces the exact same buckets in the exact same order as the naive
//! sequential loop, at a host cost of
//! O(records + input partitions + output partitions) — never (input
//! partitions × output partitions), which at the paper's 1,200 partitions is
//! 1.44 M. Pass 1 asks the rule once per record, into one table of
//! destinations for the whole scatter; pass 2 counts each bucket's records;
//! pass 3 moves or clones each record straight into its exact-size bucket.
//! Below `PARALLEL_SCATTER_MIN_RECORDS` records all three run on the calling
//! thread. From there up pass 1 runs on the pool, one input partition per
//! item, and so do passes 2 and 3 where the buckets are large enough
//! (`MIN_RUN_BYTES_PER_BUCKET`): per *run*, a contiguous range of input
//! partitions, one per pool thread, balanced by record count. A prefix sum
//! over the runs' counts gives each run its own sub-slice of every bucket,
//! runs in input order, so each record moves once, no run waits for
//! another, and every bucket is record-for-record the sequential loop's.
//!
//! A scatter whose records are all already home — one input per output, and
//! every record destined for its own input's index — places nothing: its
//! first pass finds that out, and the inputs come back as they are (owned
//! ones as the same buffers, shared ones with no clone). Those are the
//! buckets the sequential loop builds, by construction. A co-partitioned
//! loop re-keys and re-shuffles state that an earlier shuffle of the same key
//! already placed, so in Listing 4's lifted PageRank 21 of a job's 41
//! scatters are of this kind. A scatter into one partition asks the rule
//! nothing either: every record lands in partition 0, so its bucket is the
//! inputs concatenated in order.

use std::hash::{Hash, Hasher};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

use crate::bag::Part;
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

/// Below this many total records a scatter hashes on the calling thread and
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

/// How many runs a scatter of `total` records from `inputs` input partitions
/// into `partitions` buckets places in: one per pool thread, but no more than
/// the inputs, from `PARALLEL_SCATTER_MIN_RECORDS` records up while each run
/// still writes `MIN_RUN_BYTES_PER_BUCKET` into an average bucket; else one,
/// on the calling thread.
fn runs_for<T>(total: usize, inputs: usize, partitions: usize) -> usize {
    if total < PARALLEL_SCATTER_MIN_RECORDS {
        return 1;
    }
    let by_bytes =
        total * std::mem::size_of::<T>() / (partitions.max(1) * MIN_RUN_BYTES_PER_BUCKET);
    crate::pool::host_parallelism().min(inputs).min(by_bytes).max(1)
}

/// Scatter the records of `inputs` into `partitions` buckets: the record at
/// position `pos`, counted across all inputs in input order, goes to bucket
/// `dest(record, pos)` (below `partitions`). Records move out of `Owned`
/// inputs and are cloned once, straight into their bucket, out of `Shared`
/// ones.
///
/// Bucket contents and record order are those of the sequential loop over
/// the inputs in input order, whichever thread hashed or placed what, and
/// every bucket is allocated at its exact size. Inputs whose records are all
/// home come back as they are: owned ones as the same buffers, shared ones
/// with no clone.
pub(crate) fn scatter<T, F>(inputs: Vec<Part<T>>, partitions: usize, dest: F) -> Vec<Part<T>>
where
    T: Clone + Send + Sync,
    F: Fn(&T, usize) -> usize + Sync,
{
    let total = inputs.iter().map(|p| p.as_slice().len()).sum();
    let runs = runs_for::<T>(total, inputs.len(), partitions);
    scatter_in_runs(inputs, partitions, dest, runs)
}

/// [`scatter`], placing in `runs` runs. Owned inputs are drained, and their
/// emptied buffers are freed here, on the calling thread: glibc frees another
/// thread's blocks under its arena lock.
fn scatter_in_runs<T, F>(
    mut inputs: Vec<Part<T>>,
    partitions: usize,
    dest: F,
    runs: usize,
) -> Vec<Part<T>>
where
    T: Clone + Send + Sync,
    F: Fn(&T, usize) -> usize + Sync,
{
    let partitions = partitions.max(1);
    if partitions == 1 {
        return match inputs.len() {
            1 => inputs,
            _ => vec![Part::Owned(concat(inputs))],
        };
    }
    let Some(dests) = destinations(&inputs, partitions, dest) else { return inputs };
    let buckets = place_in_runs(&dests, partitions, &mut inputs, runs);
    drop(inputs);
    buckets.into_iter().map(Part::Owned).collect()
}

/// The one bucket of a scatter into one partition: every record, in input
/// order. Every rule sends a record to partition 0, so none is asked.
fn concat<T: Clone>(inputs: Vec<Part<T>>) -> Vec<T> {
    let mut bucket = Vec::with_capacity(inputs.iter().map(|p| p.as_slice().len()).sum());
    for part in inputs {
        match part {
            Part::Owned(records) => bucket.extend(records),
            Part::Shared(set, i) => bucket.extend_from_slice(&set[i]),
        }
    }
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

/// Pass 1 of the scatter: every record's destination partition — the only
/// call of the rule a record gets. The rule is order-free, so large scatters
/// run it on the pool, one input partition per item, each writing its own
/// range of the one table. Each input also reports whether all its records
/// are home (destined for its own index); `None` when, with one input per
/// output, every input is.
fn destinations<T, F>(inputs: &[Part<T>], partitions: usize, dest: F) -> Option<Destinations>
where
    T: Send + Sync,
    F: Fn(&T, usize) -> usize + Sync,
{
    assert!(partitions <= u32::MAX as usize, "scatter exceeds u32 destination capacity");
    let mut starts = Vec::with_capacity(inputs.len() + 1);
    starts.push(0);
    for p in inputs {
        starts.push(starts[starts.len() - 1] + p.as_slice().len());
    }
    let total = starts[inputs.len()];
    let ids: Vec<AtomicU32> = (0..total).map(|_| AtomicU32::new(0)).collect();
    let route_input = |i: usize| -> bool {
        let mut home = true;
        let records = inputs[i].as_slice().iter().zip(starts[i]..);
        for ((rec, pos), id) in records.zip(&ids[starts[i]..starts[i + 1]]) {
            let d = dest(rec, pos);
            home &= d == i;
            id.store(d as u32, Ordering::Relaxed);
        }
        home
    };
    // The pool runs one input, or a host of one core, inline.
    let home: Vec<bool> = if total < PARALLEL_SCATTER_MIN_RECORDS {
        (0..inputs.len()).map(route_input).collect()
    } else {
        parallel_map_range(inputs.len(), route_input)
    };
    if inputs.len() == partitions && home.into_iter().all(|home| home) {
        return None;
    }
    // The cells publish nothing else, and a pool call returns only once every
    // item has completed, so `Relaxed` stores are all read here.
    let ids = ids.into_iter().map(AtomicU32::into_inner).collect();
    Some(Destinations { ids, starts })
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

/// One input's records as a run reads them: moved out of an owned input
/// (drained: its buffer stays with the caller), borrowed from a shared one.
enum Records<'a, T> {
    Moved(std::vec::Drain<'a, T>),
    Cloned(std::slice::Iter<'a, T>),
}

/// A run's input partitions and its sub-slice of every bucket.
type Run<'a, T> = (Vec<Records<'a, T>>, Vec<std::slice::IterMut<'a, MaybeUninit<T>>>);

/// Passes 2 and 3 of the scatter, in `runs` runs on the pool (see
/// [`run_bounds`]; one run runs on the calling thread). Each run counts its
/// own records per bucket. A prefix sum over the runs allocates every bucket
/// at its exact size (an empty bucket allocates nothing, none regrows) and
/// cuts its spare capacity into one sub-slice per run, run 0 first, and each
/// run moves or clones its records into its own sub-slices in input order.
/// Runs are contiguous and in input order, so every bucket is the sequential
/// loop's; each record moves once, and no run waits for another.
///
/// A panic in a clone unwinds with every bucket still empty: the records
/// already written leak, and none is dropped twice.
fn place_in_runs<T: Clone + Send + Sync>(
    dests: &Destinations,
    partitions: usize,
    inputs: &mut [Part<T>],
    runs: usize,
) -> Vec<Vec<T>> {
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
    let mut records = inputs.iter_mut().map(|part| match part {
        Part::Owned(v) => Records::Moved(v.drain(..)),
        Part::Shared(set, i) => Records::Cloned(set[*i].iter()),
    });
    let work: Vec<Mutex<Option<Run<'_, T>>>> = slots
        .into_iter()
        .enumerate()
        .map(|(r, slots)| {
            let parts = records.by_ref().take(bounds[r + 1] - bounds[r]).collect();
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
            let ids = dests.of(i, i + 1);
            match part {
                Records::Moved(recs) => write(&mut slots, ids, recs, |rec| rec),
                Records::Cloned(recs) => write(&mut slots, ids, recs, T::clone),
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

/// Write one input's records into a run's slots, record `j` into the next
/// slot of bucket `ids[j]`. `take` turns what the input yields into the
/// stored record at the write site: the identity for a move, `T::clone` for
/// a borrow. (A cloning *iterator* zipped with the ids builds every clone in
/// a temporary first — twice the time of this loop on 48-byte `Value` pairs.)
fn write<I: Iterator, T>(
    slots: &mut [std::slice::IterMut<'_, MaybeUninit<T>>],
    ids: &[u32],
    records: I,
    take: impl Fn(I::Item) -> T,
) {
    for (rec, &d) in records.zip(ids) {
        slots[d as usize].next().expect("a slot per counted record").write(take(rec));
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

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

    /// Owned parts holding `inputs`.
    fn owned<T>(inputs: Vec<Vec<T>>) -> Vec<Part<T>> {
        inputs.into_iter().map(Part::Owned).collect()
    }

    /// Shared handles on one partition set holding `inputs`.
    fn shared<T>(inputs: Vec<Vec<T>>) -> Vec<Part<T>> {
        let set = Arc::new(inputs);
        (0..set.len()).map(|i| Part::Shared(Arc::clone(&set), i)).collect()
    }

    /// Each part's records, cloned.
    fn records<T: Clone>(parts: &[Part<T>]) -> Vec<Vec<T>> {
        parts.iter().map(|p| p.as_slice().to_vec()).collect()
    }

    /// The by-key rule of a shuffle into `partitions`: the key's hash.
    fn by_key<V>(partitions: usize) -> impl Fn(&(u64, V), usize) -> usize + Sync {
        move |r, _| partition_for(&r.0, partitions)
    }

    #[test]
    fn scatter_groups_same_keys_together() {
        let inputs = vec![vec![(1u64, "a"), (2, "b")], vec![(1, "c"), (3, "d")]];
        let out = records(&scatter(owned(inputs), 4, by_key(4)));
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
        let out = scatter(owned(inputs), 8, by_key(8));
        let nonempty = out.iter().filter(|p| !p.as_slice().is_empty()).count();
        assert!(nonempty >= 7, "hash partitioning should use nearly all partitions");
    }

    /// Reference implementation: the naive sequential scatter every placement
    /// must reproduce bit-for-bit (contents *and* order), the record at
    /// position `pos` across the inputs going to `dest(record, pos)`.
    fn sequential_scatter<T: Clone>(
        inputs: &[Vec<T>],
        partitions: usize,
        dest: impl Fn(&T, usize) -> usize,
    ) -> Vec<Vec<T>> {
        let mut out: Vec<Vec<T>> = (0..partitions).map(|_| Vec::new()).collect();
        for (pos, rec) in inputs.iter().flatten().enumerate() {
            out[dest(rec, pos)].push(rec.clone());
        }
        out
    }

    #[test]
    fn parallel_scatter_matches_sequential_exactly() {
        // Well above the parallel threshold, uneven partition sizes.
        let inputs: Vec<Vec<(u64, u64)>> = (0..9)
            .map(|p| (0..(1500 + p * 321)).map(|i| ((i * 31 + p) % 4093, i)).collect())
            .collect();
        let expect = sequential_scatter(&inputs, 13, by_key(13));
        let moved = scatter(owned(inputs.clone()), 13, by_key(13));
        assert_eq!(records(&moved), expect, "owned parallel scatter must match the loop");
        let cloned = scatter(shared(inputs), 13, by_key(13));
        assert_eq!(records(&cloned), expect, "shared parallel scatter must match the loop");
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

    /// The one scatter equals the naive loop — contents *and* order — over
    /// random shapes: 0–64 input partitions (some empty, sometimes all),
    /// 1–1,500 outputs, totals on both sides of `PARALLEL_SCATTER_MIN_RECORDS`,
    /// uniform / single-key / Zipf-ish keys, a non-`Copy` record type, under
    /// three rules (a key's hash, ranges of split points, `repartition`'s
    /// round robin), with owned, shared and mixed inputs, each placed in 1–8
    /// runs whatever the host's core count. Every bucket a
    /// scatter builds has its exact size; inputs it hands back are the very
    /// parts it was given.
    #[test]
    fn scatter_equals_the_sequential_loop_on_random_shapes() {
        const CASES: u64 = 240;
        let (mut inline, mut pooled, mut all_empty, mut one_output) = (0, 0, 0, 0);
        let mut rules = [0; 3];
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
            let records_wanted = if open.is_empty() { 0 } else { target };
            for id in 0..records_wanted {
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

            // Range split points: exact quantiles of every key.
            let mut keys: Vec<u64> = inputs.iter().flatten().map(|r| r.0).collect();
            keys.sort_unstable();
            let splits: Vec<u64> = (1..partitions)
                .filter_map(|i| keys.get(i * keys.len() / partitions))
                .copied()
                .collect();
            let rule = (splitmix64(&mut rng) % 3) as usize;
            rules[rule] += 1;
            let dest = |r: &(u64, String), pos: usize| match rule {
                0 => partition_for(&r.0, partitions),
                1 => splits.partition_point(|s| *s <= r.0),
                _ => pos % partitions,
            };
            let expect = sequential_scatter(&inputs, partitions, dest);
            assert_eq!(expect.iter().map(Vec::len).sum::<usize>(), total);
            // The loop's buckets are the inputs: one input into one
            // partition, or every record home.
            let passthrough = inputs.len() == partitions && expect == inputs;
            let set = Arc::new(inputs.clone());
            for runs in 1..=8 {
                for mix in ["owned", "shared", "mixed"] {
                    let at = format!("case {case}, rule {rule}, {mix}, {runs} runs");
                    let given: Vec<Part<(u64, String)>> = (0..n_inputs)
                        .map(|i| match (mix, i % 3) {
                            ("owned", _) | ("mixed", 1) => Part::Owned(inputs[i].clone()),
                            _ => Part::Shared(Arc::clone(&set), i),
                        })
                        .collect();
                    let buffers: Vec<*const (u64, String)> =
                        given.iter().map(|p| p.as_slice().as_ptr()).collect();
                    let out = scatter_in_runs(given, partitions, dest, runs);
                    assert!(records(&out) == expect, "{at}: the scatter differs from the loop");
                    if passthrough {
                        let same = out.iter().map(|p| p.as_slice().as_ptr()).eq(buffers);
                        assert!(same, "{at}: inputs all home are handed back as they are");
                        continue;
                    }
                    let exact = out.iter().all(|p| match p {
                        Part::Owned(bucket) => bucket.capacity() == bucket.len(),
                        Part::Shared(..) => false,
                    });
                    assert!(exact, "{at}: a bucket is shared or not exact-size");
                }
            }
            let out = scatter(shared(inputs), partitions, dest);
            assert!(records(&out) == expect, "case {case}");
        }
        // The draw must actually cover what the doc comment promises.
        assert!(inline >= 50 && pooled >= 50, "inline {inline}, pooled {pooled}");
        assert!(all_empty >= 10 && one_output >= 20, "empty {all_empty}, one {one_output}");
        assert!(rules.iter().all(|&n| n >= 50), "rules drawn {rules:?}");
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

    /// A clone that panics midway through a pooled scatter, in a shared
    /// input placed between owned ones, unwinds out of it: the records
    /// already placed leak (clones and moved originals alike), every shared
    /// original is dropped with its set, and no record is dropped twice.
    #[test]
    fn a_panicking_clone_unwinds_with_no_double_drop() {
        use std::sync::atomic::Ordering::SeqCst;
        let records = 2 * PARALLEL_SCATTER_MIN_RECORDS as u64;
        let input = |p: u64| -> Vec<(u64, Fused)> {
            (p..records).step_by(6).map(|i| (i % 991, Fused::new(i))).collect()
        };
        // Inputs 2 and 3 are shared, 0, 1, 4 and 5 owned.
        let first = NEXT_ID.load(SeqCst);
        let set = Arc::new(vec![input(2), input(3)]);
        let last = NEXT_ID.load(SeqCst);
        let shared_records = set.iter().map(Vec::len).sum::<usize>() as u64;
        for runs in [1, 3, 6] {
            let parts = vec![
                Part::Owned(input(0)),
                Part::Owned(input(1)),
                Part::Shared(Arc::clone(&set), 0),
                Part::Shared(Arc::clone(&set), 1),
                Part::Owned(input(4)),
                Part::Owned(input(5)),
            ];
            CLONES.store(0, SeqCst);
            PANIC_AT.store(shared_records / 2, SeqCst);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                scatter_in_runs(parts, 5, by_key(5), runs)
            }));
            assert!(unwound.is_err(), "{runs} runs: the clone's panic reaches the caller");
        }
        PANIC_AT.store(u64::MAX, SeqCst);
        drop(set);
        let mut dropped = std::mem::take(&mut *DROPPED.lock().unwrap());
        dropped.sort_unstable();
        let before = dropped.len();
        dropped.dedup();
        assert_eq!(dropped.len(), before, "a record was dropped twice");
        assert!(dropped.iter().all(|&id| id < NEXT_ID.load(SeqCst)), "a dropped id was never made");
        let kept = (first..last).filter(|id| dropped.binary_search(id).is_err()).count();
        assert_eq!(kept, 0, "a shared original leaked");
    }

    /// Inputs already placed by key, one per output: every record home.
    fn home_inputs(partitions: usize, records: u64) -> Vec<Vec<(u64, u64)>> {
        let all: Vec<(u64, u64)> = (0..records).map(|i| (i % 997, i)).collect();
        sequential_scatter(&[all], partitions, by_key(partitions))
    }

    /// Below and above the pooled-hashing threshold, owned inputs whose
    /// records are all home come back as the same buffers, and shared ones
    /// as the same handles; both are what the sequential loop builds.
    #[test]
    fn inputs_all_home_come_back_as_they_are() {
        for records_in in [300, 3 * PARALLEL_SCATTER_MIN_RECORDS as u64] {
            let inputs = home_inputs(7, records_in);
            let expect = sequential_scatter(&inputs, 7, by_key(7));
            assert_eq!(expect, inputs, "{records_in}: placed inputs are the loop's buckets");
            let handles = shared(inputs.clone());
            let buffers: Vec<*const (u64, u64)> =
                handles.iter().map(|p| p.as_slice().as_ptr()).collect();
            let out = scatter(handles, 7, by_key(7));
            assert!(out.iter().all(|p| matches!(p, Part::Shared(..))), "{records_in}: no copy");
            assert_eq!(out.iter().map(|p| p.as_slice().as_ptr()).collect::<Vec<_>>(), buffers);
            let buffers: Vec<*const (u64, u64)> = inputs.iter().map(|p| p.as_ptr()).collect();
            let moved = scatter(owned(inputs), 7, by_key(7));
            assert_eq!(records(&moved), expect, "{records_in}");
            let same: Vec<*const (u64, u64)> =
                moved.iter().map(|p| p.as_slice().as_ptr()).collect();
            assert_eq!(same, buffers, "{records_in}: the same buffers, not copies");
            // One input more than outputs: a scatter, though every record
            // hashes to an index it could keep.
            let mut wider = home_inputs(7, records_in);
            wider.push(Vec::new());
            assert_eq!(records(&scatter(owned(wider), 7, by_key(7))), expect, "{records_in}");
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
        let records_in = 2 * PARALLEL_SCATTER_MIN_RECORDS as u64;
        let inputs: Vec<Vec<(u64, Counted)>> = home_inputs(5, records_in)
            .into_iter()
            .map(|p| p.into_iter().map(|(k, v)| (k, Counted(v))).collect())
            .collect();
        let handles = shared(inputs);
        CLONES.store(0, Ordering::Relaxed);
        let out = scatter(handles, 5, by_key(5));
        assert!(out.iter().all(|p| matches!(p, Part::Shared(..))));
        assert_eq!(CLONES.load(Ordering::Relaxed), 0, "an all-home scatter clones nothing");
    }

    /// One record out of place and the whole scatter runs, equal to the
    /// sequential loop out of shared and owned inputs.
    #[test]
    fn one_misplaced_record_falls_back_to_the_counting_scatter() {
        for records_in in [300, 3 * PARALLEL_SCATTER_MIN_RECORDS as u64] {
            let mut inputs = home_inputs(7, records_in);
            let stray = inputs[2].pop().expect("a record to misplace");
            inputs[5].insert(1, stray);
            let expect = sequential_scatter(&inputs, 7, by_key(7));
            assert_ne!(expect, inputs, "{records_in}: the stray record moves home");
            let cloned = scatter(shared(inputs.clone()), 7, by_key(7));
            assert_eq!(records(&cloned), expect, "{records_in}");
            assert!(cloned.iter().all(|p| matches!(p, Part::Owned(_))), "{records_in}");
            assert_eq!(records(&scatter(owned(inputs), 7, by_key(7))), expect, "{records_in}");
        }
    }

    #[test]
    fn shared_scatter_small_input_serial_path_matches_too() {
        let out = scatter(shared(vec![(0..50u64).collect()]), 4, |x, _| partition_for(x, 4));
        let expect = sequential_scatter(&[(0..50).collect()], 4, |x, _| partition_for(x, 4));
        assert_eq!(records(&out), expect);
    }
}
