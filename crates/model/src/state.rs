//! Checkpointable state containers.
//!
//! TART components keep state "in ordinary instance variables" rather than
//! special transactional objects (§I.B). These containers are the Rust
//! rendering of that promise: they behave like a value, a map, and a vector,
//! while transparently journaling updates so the runtime can take cheap
//! *incremental* checkpoints (§II.F.2) between full ones.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use bytes::{BufMut, BytesMut};
use tart_codec::{Decode, DecodeError, Encode, Reader};

use crate::{CheckpointMode, FoldState, StateChunk, StateHasher};

/// A single checkpointable value.
///
/// # Example
///
/// ```
/// use tart_model::{CheckpointMode, CkptCell};
///
/// let mut total = CkptCell::new(0i64);
/// total.set(5);
/// let chunk = total.take_chunk(CheckpointMode::Incremental).expect("dirty");
/// // Unchanged since the checkpoint: nothing to ship.
/// assert!(total.take_chunk(CheckpointMode::Incremental).is_none());
///
/// let mut replica = CkptCell::new(0i64);
/// replica.apply_chunk(&chunk)?;
/// assert_eq!(*replica.get(), 5);
/// # Ok::<(), tart_codec::DecodeError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CkptCell<T> {
    value: T,
    dirty: bool,
}

impl<T> CkptCell<T> {
    /// Creates a cell holding `value`. The cell starts dirty so the first
    /// checkpoint always captures it.
    pub fn new(value: T) -> Self {
        CkptCell { value, dirty: true }
    }

    /// Borrows the current value.
    pub fn get(&self) -> &T {
        &self.value
    }

    /// Replaces the value, marking the cell dirty.
    pub fn set(&mut self, value: T) {
        self.value = value;
        self.dirty = true;
    }

    /// Updates the value in place, marking the cell dirty.
    pub fn update(&mut self, f: impl FnOnce(&mut T)) {
        f(&mut self.value);
        self.dirty = true;
    }

    /// Whether the value changed since the last checkpoint.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }
}

impl<T: Encode + Decode> CkptCell<T> {
    /// Captures this cell's checkpoint contribution.
    ///
    /// Cells are atomic: an incremental checkpoint either omits the cell
    /// (clean) or ships its full encoding (dirty).
    pub fn take_chunk(&mut self, mode: CheckpointMode) -> Option<StateChunk> {
        match mode {
            CheckpointMode::Full => {
                self.dirty = false;
                Some(StateChunk::Full(self.value.to_bytes()))
            }
            CheckpointMode::Incremental => {
                if self.dirty {
                    self.dirty = false;
                    Some(StateChunk::Full(self.value.to_bytes()))
                } else {
                    None
                }
            }
        }
    }

    /// Applies a restored chunk.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the payload is corrupt or the chunk is a
    /// delta (cells never emit deltas).
    pub fn apply_chunk(&mut self, chunk: &StateChunk) -> Result<(), DecodeError> {
        match chunk {
            StateChunk::Full(bytes) => {
                self.value = T::from_bytes(bytes)?;
                self.dirty = false;
                Ok(())
            }
            StateChunk::Delta(_) => Err(DecodeError::InvalidTag {
                tag: 1,
                type_name: "CkptCell (cells never emit deltas)",
            }),
        }
    }
}

impl<T: Default> Default for CkptCell<T> {
    fn default() -> Self {
        CkptCell::new(T::default())
    }
}

impl<T: Encode> FoldState for CkptCell<T> {
    /// Folds the value's canonical encoding — identical bytes to the cell's
    /// full checkpoint image, but without touching the dirty flag.
    fn fold_state(&self, hasher: &mut StateHasher) {
        hasher.update(&self.value.to_bytes());
    }
}

/// Journal operation for [`CkptMap`].
#[derive(Clone, Debug, PartialEq)]
enum MapOp<K, V> {
    Insert(K, V),
    Remove(K),
    Clear,
}

impl<K: Encode, V: Encode> Encode for MapOp<K, V> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            MapOp::Insert(k, v) => {
                buf.put_u8(0);
                k.encode(buf);
                v.encode(buf);
            }
            MapOp::Remove(k) => {
                buf.put_u8(1);
                k.encode(buf);
            }
            MapOp::Clear => buf.put_u8(2),
        }
    }
}

impl<K: Decode, V: Decode> Decode for MapOp<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            0 => Ok(MapOp::Insert(K::decode(r)?, V::decode(r)?)),
            1 => Ok(MapOp::Remove(K::decode(r)?)),
            2 => Ok(MapOp::Clear),
            tag => Err(DecodeError::InvalidTag {
                tag,
                type_name: "MapOp",
            }),
        }
    }
}

/// A checkpointable hash map with incremental-delta support.
///
/// This is the paper's motivating case: "for large structures like hash
/// tables needing incremental checkpointing, updates since the last
/// checkpoint are stored in an auxiliary structure" (§II.F.2). Updates are
/// journaled; an incremental checkpoint ships only the journal (falling
/// back to a full image when the journal grows past twice the map size).
///
/// The map is `BTreeMap`-backed so that *everything* about it is
/// deterministic: iteration order, checkpoint-image bytes, and any
/// component behaviour derived from walking the entries. (A hash-backed
/// map is one `iter()` away from a replay divergence; see DESIGN.md §11.)
///
/// # Example
///
/// ```
/// use tart_model::{CheckpointMode, CkptMap};
///
/// let mut counts: CkptMap<String, u64> = CkptMap::new();
/// counts.insert("the".into(), 1);
/// let full = counts.take_chunk(CheckpointMode::Full).expect("first full");
/// counts.insert("cat".into(), 1);
/// let delta = counts.take_chunk(CheckpointMode::Incremental).expect("journal");
///
/// let mut replica: CkptMap<String, u64> = CkptMap::new();
/// replica.apply_chunk(&full)?;
/// replica.apply_chunk(&delta)?;
/// assert_eq!(replica.get("cat"), Some(&1));
/// # Ok::<(), tart_codec::DecodeError>(())
/// ```
#[derive(Clone)]
pub struct CkptMap<K, V> {
    map: BTreeMap<K, V>,
    journal: Vec<MapOp<K, V>>,
    /// Set when the journal alone cannot reconstruct the state (fresh
    /// container that has never shipped a full image).
    needs_full: bool,
    /// Incremental content digest: the mod-2⁶⁴ sum of one contribution per
    /// entry. Keys touched since the last [`CkptMap::digest`] wait in
    /// `digest_dirty`; their cached contributions are swapped out lazily,
    /// so a digest costs O(touched entries), not O(map).
    digest_acc: u64,
    digest_cache: BTreeMap<K, u64>,
    digest_dirty: BTreeSet<K>,
}

impl<K, V> CkptMap<K, V>
where
    K: Ord + Clone + Encode + Decode,
    V: Clone + Encode + Decode,
{
    /// Creates an empty map.
    pub fn new() -> Self {
        CkptMap {
            map: BTreeMap::new(),
            journal: Vec::new(),
            needs_full: true,
            digest_acc: 0,
            digest_cache: BTreeMap::new(),
            digest_dirty: BTreeSet::new(),
        }
    }

    /// Inserts a key/value pair, journaling the update. Returns the previous
    /// value, if any.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        self.journal.push(MapOp::Insert(k.clone(), v.clone()));
        if !self.digest_dirty.contains(&k) {
            self.digest_dirty.insert(k.clone());
        }
        self.map.insert(k, v)
    }

    /// Removes a key, journaling the update.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        let prev = self.map.remove(k);
        if prev.is_some() {
            self.journal.push(MapOp::Remove(k.clone()));
            self.digest_dirty.insert(k.clone());
        }
        prev
    }

    /// Clears the map, journaling the update.
    pub fn clear(&mut self) {
        if !self.map.is_empty() {
            self.journal.push(MapOp::Clear);
            self.map.clear();
        }
        self.reset_digest();
    }

    fn reset_digest(&mut self) {
        self.digest_acc = 0;
        self.digest_cache.clear();
        self.digest_dirty.clear();
    }

    /// A deterministic 64-bit digest of the current content, maintained
    /// incrementally: each entry contributes a hash of its canonical
    /// `(key, value)` encoding, and contributions sum mod 2⁶⁴ — a pure,
    /// order-independent function of logical state. Amortized cost is
    /// O(entries touched since the last call), which is what makes
    /// per-checkpoint state hashing affordable on maps that grow with the
    /// message history (see DESIGN.md §15).
    pub fn digest(&mut self) -> u64 {
        for k in std::mem::take(&mut self.digest_dirty) {
            if let Some(old) = self.digest_cache.remove(&k) {
                self.digest_acc = self.digest_acc.wrapping_sub(old);
            }
            if let Some(v) = self.map.get(&k) {
                let c = Self::entry_digest(&k, v);
                self.digest_acc = self.digest_acc.wrapping_add(c);
                self.digest_cache.insert(k, c);
            }
        }
        self.digest_acc
    }

    fn entry_digest(k: &K, v: &V) -> u64 {
        let mut buf = BytesMut::new();
        k.encode(&mut buf);
        v.encode(&mut buf);
        let mut h = StateHasher::new();
        h.update(&buf);
        let hash = h.finish();
        u64::from_le_bytes(hash.as_bytes()[..8].try_into().expect("8 bytes"))
    }

    /// Looks up a key.
    pub fn get<Q>(&self, k: &Q) -> Option<&V>
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.map.get(k)
    }

    /// Returns `true` if the key is present.
    pub fn contains_key<Q>(&self, k: &Q) -> bool
    where
        K: std::borrow::Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.map.contains_key(k)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over entries in ascending key order. The order is
    /// deterministic, so component behaviour may safely depend on it.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter()
    }

    /// Number of journaled updates awaiting the next incremental checkpoint.
    pub fn journal_len(&self) -> usize {
        self.journal.len()
    }

    /// Captures this map's checkpoint contribution.
    ///
    /// Full mode (or a journal larger than the map, or a map that has never
    /// shipped a full image) produces a self-contained canonical image;
    /// otherwise the journal ships as a delta. Either way the journal is
    /// drained.
    pub fn take_chunk(&mut self, mode: CheckpointMode) -> Option<StateChunk> {
        let force_full = mode == CheckpointMode::Full
            || self.needs_full
            || self.journal.len() > self.map.len().saturating_mul(2);
        if force_full {
            self.journal.clear();
            self.needs_full = false;
            // BTreeMap iteration is already ascending-key, so the image is
            // canonical without an extra sort.
            let mut buf = BytesMut::new();
            (self.map.len() as u64).encode(&mut buf);
            for (k, v) in &self.map {
                k.encode(&mut buf);
                v.encode(&mut buf);
            }
            Some(StateChunk::Full(buf.to_vec()))
        } else if self.journal.is_empty() {
            None
        } else {
            let delta = self.journal.to_bytes();
            self.journal.clear();
            Some(StateChunk::Delta(delta))
        }
    }

    /// Applies a restored chunk (full image or journal delta).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the payload is corrupt.
    pub fn apply_chunk(&mut self, chunk: &StateChunk) -> Result<(), DecodeError> {
        match chunk {
            StateChunk::Full(bytes) => {
                self.map = BTreeMap::from_bytes(bytes)?;
                self.journal.clear();
                self.needs_full = false;
                // Restored content replaces everything: rebuild the digest
                // lazily by marking every surviving key touched.
                self.reset_digest();
                self.digest_dirty = self.map.keys().cloned().collect();
                Ok(())
            }
            StateChunk::Delta(bytes) => {
                let ops: Vec<MapOp<K, V>> = Vec::from_bytes(bytes)?;
                for op in ops {
                    match op {
                        MapOp::Insert(k, v) => {
                            self.digest_dirty.insert(k.clone());
                            self.map.insert(k, v);
                        }
                        MapOp::Remove(k) => {
                            self.digest_dirty.insert(k.clone());
                            self.map.remove(&k);
                        }
                        MapOp::Clear => {
                            self.map.clear();
                            self.reset_digest();
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

impl<K, V> Default for CkptMap<K, V>
where
    K: Ord + Clone + Encode + Decode,
    V: Clone + Encode + Decode,
{
    fn default() -> Self {
        CkptMap::new()
    }
}

impl<K: Encode, V: Encode> FoldState for CkptMap<K, V> {
    /// Folds the canonical full image (length, then ascending-key pairs) —
    /// identical bytes to a full checkpoint chunk, but without draining the
    /// journal. Equal logical state always folds identically, whatever the
    /// update history.
    fn fold_state(&self, hasher: &mut StateHasher) {
        let mut buf = BytesMut::new();
        (self.map.len() as u64).encode(&mut buf);
        for (k, v) in &self.map {
            k.encode(&mut buf);
            v.encode(&mut buf);
        }
        hasher.update(&buf);
    }
}

impl<K, V> fmt::Debug for CkptMap<K, V>
where
    K: fmt::Debug,
    V: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CkptMap")
            .field("entries", &self.map.len())
            .field("journal", &self.journal.len())
            .finish()
    }
}

impl<K, V> PartialEq for CkptMap<K, V>
where
    K: PartialEq,
    V: PartialEq,
{
    /// Equality compares logical contents only, not journal state.
    fn eq(&self, other: &Self) -> bool {
        self.map == other.map
    }
}

/// Journal operation for [`CkptVec`].
#[derive(Clone, Debug, PartialEq)]
enum VecOp<T> {
    Push(T),
    Pop,
    Set(u64, T),
    Clear,
}

impl<T: Encode> Encode for VecOp<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            VecOp::Push(v) => {
                buf.put_u8(0);
                v.encode(buf);
            }
            VecOp::Pop => buf.put_u8(1),
            VecOp::Set(i, v) => {
                buf.put_u8(2);
                i.encode(buf);
                v.encode(buf);
            }
            VecOp::Clear => buf.put_u8(3),
        }
    }
}

impl<T: Decode> Decode for VecOp<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.read_u8()? {
            0 => Ok(VecOp::Push(T::decode(r)?)),
            1 => Ok(VecOp::Pop),
            2 => Ok(VecOp::Set(u64::decode(r)?, T::decode(r)?)),
            3 => Ok(VecOp::Clear),
            tag => Err(DecodeError::InvalidTag {
                tag,
                type_name: "VecOp",
            }),
        }
    }
}

/// A checkpointable vector with incremental-delta support.
///
/// Suits append-mostly state such as event windows and recent-history
/// buffers.
#[derive(Clone)]
pub struct CkptVec<T> {
    vec: Vec<T>,
    journal: Vec<VecOp<T>>,
    needs_full: bool,
}

impl<T> CkptVec<T>
where
    T: Clone + Encode + Decode,
{
    /// Creates an empty vector.
    pub fn new() -> Self {
        CkptVec {
            vec: Vec::new(),
            journal: Vec::new(),
            needs_full: true,
        }
    }

    /// Appends an element, journaling the update.
    pub fn push(&mut self, v: T) {
        self.journal.push(VecOp::Push(v.clone()));
        self.vec.push(v);
    }

    /// Removes and returns the last element, journaling the update.
    pub fn pop(&mut self) -> Option<T> {
        let out = self.vec.pop();
        if out.is_some() {
            self.journal.push(VecOp::Pop);
        }
        out
    }

    /// Replaces the element at `idx`, journaling the update.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn set(&mut self, idx: usize, v: T) {
        assert!(idx < self.vec.len(), "index {idx} out of bounds");
        self.journal.push(VecOp::Set(idx as u64, v.clone()));
        self.vec[idx] = v;
    }

    /// Clears the vector, journaling the update.
    pub fn clear(&mut self) {
        if !self.vec.is_empty() {
            self.journal.push(VecOp::Clear);
            self.vec.clear();
        }
    }

    /// Element access.
    pub fn get(&self, idx: usize) -> Option<&T> {
        self.vec.get(idx)
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// Returns `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Iterates over elements in order.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.vec.iter()
    }

    /// Borrows the contents as a slice.
    pub fn as_slice(&self) -> &[T] {
        &self.vec
    }

    /// Captures this vector's checkpoint contribution (see
    /// [`CkptMap::take_chunk`] for the full/delta policy).
    pub fn take_chunk(&mut self, mode: CheckpointMode) -> Option<StateChunk> {
        let force_full = mode == CheckpointMode::Full
            || self.needs_full
            || self.journal.len() > self.vec.len().saturating_mul(2);
        if force_full {
            self.journal.clear();
            self.needs_full = false;
            Some(StateChunk::Full(self.vec.to_bytes()))
        } else if self.journal.is_empty() {
            None
        } else {
            let delta = self.journal.to_bytes();
            self.journal.clear();
            Some(StateChunk::Delta(delta))
        }
    }

    /// Applies a restored chunk (full image or journal delta).
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the payload is corrupt or a delta
    /// references an out-of-range index.
    pub fn apply_chunk(&mut self, chunk: &StateChunk) -> Result<(), DecodeError> {
        match chunk {
            StateChunk::Full(bytes) => {
                self.vec = Vec::from_bytes(bytes)?;
                self.journal.clear();
                self.needs_full = false;
                Ok(())
            }
            StateChunk::Delta(bytes) => {
                let ops: Vec<VecOp<T>> = Vec::from_bytes(bytes)?;
                for op in ops {
                    match op {
                        VecOp::Push(v) => self.vec.push(v),
                        VecOp::Pop => {
                            self.vec.pop();
                        }
                        VecOp::Set(i, v) => {
                            let idx = i as usize;
                            if idx >= self.vec.len() {
                                return Err(DecodeError::LengthOverflow { declared: i });
                            }
                            self.vec[idx] = v;
                        }
                        VecOp::Clear => self.vec.clear(),
                    }
                }
                Ok(())
            }
        }
    }
}

impl<T: Clone + Encode + Decode> Default for CkptVec<T> {
    fn default() -> Self {
        CkptVec::new()
    }
}

impl<T: Encode> FoldState for CkptVec<T> {
    /// Folds the canonical full image — identical bytes to a full checkpoint
    /// chunk, but without draining the journal.
    fn fold_state(&self, hasher: &mut StateHasher) {
        hasher.update(&self.vec.to_bytes());
    }
}

impl<T: fmt::Debug> fmt::Debug for CkptVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CkptVec")
            .field("len", &self.vec.len())
            .field("journal", &self.journal.len())
            .finish()
    }
}

impl<T: PartialEq> PartialEq for CkptVec<T> {
    /// Equality compares logical contents only, not journal state.
    fn eq(&self, other: &Self) -> bool {
        self.vec == other.vec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_digest_tracks_content_not_history() {
        let mut a: CkptMap<String, u64> = CkptMap::new();
        let mut b: CkptMap<String, u64> = CkptMap::new();
        a.insert("x".into(), 1);
        a.insert("y".into(), 2);
        a.insert("x".into(), 3);
        b.insert("y".into(), 2);
        b.insert("x".into(), 3);
        b.insert("z".into(), 9);
        b.remove(&"z".to_string());
        assert_eq!(
            a.digest(),
            b.digest(),
            "equal content must digest equally, whatever the update history"
        );
        a.insert("y".into(), 5);
        assert_ne!(a.digest(), b.digest(), "divergent content must differ");
        a.clear();
        let fresh: u64 = CkptMap::<String, u64>::new().digest();
        assert_eq!(a.digest(), fresh, "cleared map digests like an empty one");
    }

    #[test]
    fn map_digest_survives_checkpoint_restore_round_trip() {
        let mut primary: CkptMap<String, u64> = CkptMap::new();
        for (i, w) in ["alpha", "beta", "gamma"].iter().enumerate() {
            primary.insert((*w).into(), i as u64);
        }
        let full = primary.take_chunk(CheckpointMode::Full).expect("full");
        primary.insert("delta".into(), 7);
        primary.remove(&"beta".to_string());
        let delta = primary
            .take_chunk(CheckpointMode::Incremental)
            .expect("delta");

        let mut replica: CkptMap<String, u64> = CkptMap::new();
        replica.apply_chunk(&full).expect("applies full");
        replica.apply_chunk(&delta).expect("applies delta");
        assert_eq!(
            replica.digest(),
            primary.digest(),
            "a restored replica must digest identically to the primary"
        );
    }

    #[test]
    fn cell_dirty_tracking() {
        let mut c = CkptCell::new(10u64);
        assert!(c.is_dirty(), "fresh cells are dirty");
        assert!(c.take_chunk(CheckpointMode::Incremental).is_some());
        assert!(!c.is_dirty());
        assert!(c.take_chunk(CheckpointMode::Incremental).is_none());
        c.update(|v| *v += 1);
        assert_eq!(*c.get(), 11);
        assert!(c.take_chunk(CheckpointMode::Incremental).is_some());
        // Full mode always captures.
        assert!(c.take_chunk(CheckpointMode::Full).is_some());
    }

    #[test]
    fn cell_rejects_delta_chunk() {
        let mut c = CkptCell::new(0u8);
        assert!(c.apply_chunk(&StateChunk::Delta(vec![])).is_err());
    }

    #[test]
    fn cell_restore_round_trip() {
        let mut c = CkptCell::new(String::from("hello"));
        let chunk = c.take_chunk(CheckpointMode::Full).unwrap();
        let mut r = CkptCell::new(String::new());
        r.apply_chunk(&chunk).unwrap();
        assert_eq!(r.get(), "hello");
        assert!(!r.is_dirty());
    }

    #[test]
    fn map_basic_operations() {
        let mut m: CkptMap<String, u64> = CkptMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert("a".into(), 1), None);
        assert_eq!(m.insert("a".into(), 2), Some(1));
        assert_eq!(m.get("a"), Some(&2));
        assert!(m.contains_key("a"));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(&"a".to_string()), Some(2));
        assert_eq!(m.remove(&"a".to_string()), None);
        assert!(m.iter().next().is_none());
    }

    #[test]
    fn map_incremental_chain_equals_full() {
        let mut live: CkptMap<String, u64> = CkptMap::new();
        let mut replica: CkptMap<String, u64> = CkptMap::new();

        live.insert("the".into(), 1);
        live.insert("cat".into(), 1);
        let full = live.take_chunk(CheckpointMode::Full).unwrap();
        assert!(full.is_full());
        replica.apply_chunk(&full).unwrap();

        live.insert("the".into(), 2);
        live.remove(&"cat".to_string());
        live.insert("dog".into(), 5);
        let delta = live.take_chunk(CheckpointMode::Incremental).unwrap();
        assert!(!delta.is_full(), "small journal ships as delta");
        replica.apply_chunk(&delta).unwrap();

        assert_eq!(replica, live);
        assert_eq!(replica.get("the"), Some(&2));
        assert_eq!(replica.get("cat"), None);
        assert_eq!(replica.get("dog"), Some(&5));

        // The §II.F.2 saving: touching 16 of 1,024 more keys ships a delta
        // at most half the full image's size.
        for i in 0..1024u64 {
            live.insert(format!("key-{i:04}"), i);
        }
        let full = live.take_chunk(CheckpointMode::Full).unwrap();
        replica.apply_chunk(&full).unwrap();
        for i in 0..16u64 {
            live.insert(format!("key-{:04}", i * 61), i + 1_000_000);
        }
        let delta = live.take_chunk(CheckpointMode::Incremental).unwrap();
        replica.apply_chunk(&delta).unwrap();
        assert_eq!(replica, live);
        let ratio = full.bytes().len() as f64 / delta.bytes().len() as f64;
        assert!(ratio >= 2.0, "full/delta bytes {ratio:.1}x, want >= 2x");
    }

    #[test]
    fn map_first_incremental_is_full() {
        // A fresh map has never shipped a full image, so even in
        // incremental mode the first chunk must be self-contained.
        let mut m: CkptMap<u32, u32> = CkptMap::new();
        m.insert(1, 1);
        let chunk = m.take_chunk(CheckpointMode::Incremental).unwrap();
        assert!(chunk.is_full());
    }

    #[test]
    fn map_large_journal_falls_back_to_full() {
        let mut m: CkptMap<u32, u32> = CkptMap::new();
        m.insert(1, 1);
        let _ = m.take_chunk(CheckpointMode::Full);
        // Churn one key many times: journal exceeds map size.
        for i in 0..10 {
            m.insert(1, i);
        }
        let chunk = m.take_chunk(CheckpointMode::Incremental).unwrap();
        assert!(chunk.is_full(), "journal larger than map ships full image");
    }

    #[test]
    fn map_clean_incremental_is_none() {
        let mut m: CkptMap<u32, u32> = CkptMap::new();
        m.insert(1, 1);
        let _ = m.take_chunk(CheckpointMode::Full);
        assert!(m.take_chunk(CheckpointMode::Incremental).is_none());
    }

    #[test]
    fn map_clear_journals() {
        let mut live: CkptMap<u32, u32> = CkptMap::new();
        let mut replica: CkptMap<u32, u32> = CkptMap::new();
        live.insert(1, 1);
        live.insert(2, 2);
        replica
            .apply_chunk(&live.take_chunk(CheckpointMode::Full).unwrap())
            .unwrap();
        live.clear();
        live.insert(3, 3);
        replica
            .apply_chunk(&live.take_chunk(CheckpointMode::Incremental).unwrap())
            .unwrap();
        assert_eq!(replica, live);
        assert_eq!(replica.len(), 1);
        // Clearing an empty map journals nothing.
        let before = live.journal_len();
        live.clear();
        live.clear();
        assert!(live.journal_len() <= before + 1);
    }

    #[test]
    fn map_full_image_is_canonical() {
        let mut a: CkptMap<String, u64> = CkptMap::new();
        let mut b: CkptMap<String, u64> = CkptMap::new();
        a.insert("x".into(), 1);
        a.insert("y".into(), 2);
        b.insert("y".into(), 2);
        b.insert("x".into(), 1);
        let ca = a.take_chunk(CheckpointMode::Full).unwrap();
        let cb = b.take_chunk(CheckpointMode::Full).unwrap();
        assert_eq!(
            ca.bytes(),
            cb.bytes(),
            "equal state ⇒ equal checkpoint bytes"
        );
    }

    #[test]
    fn map_corrupt_chunk_is_error() {
        let mut m: CkptMap<u32, u32> = CkptMap::new();
        assert!(m.apply_chunk(&StateChunk::Full(vec![0xff, 0xff])).is_err());
        assert!(m.apply_chunk(&StateChunk::Delta(vec![0x01, 9])).is_err());
    }

    #[test]
    fn vec_basic_operations() {
        let mut v: CkptVec<u32> = CkptVec::new();
        assert!(v.is_empty());
        v.push(1);
        v.push(2);
        v.set(0, 10);
        assert_eq!(v.len(), 2);
        assert_eq!(v.get(0), Some(&10));
        assert_eq!(v.as_slice(), &[10, 2]);
        assert_eq!(v.pop(), Some(2));
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![10]);
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.pop(), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn vec_set_out_of_bounds_panics() {
        let mut v: CkptVec<u32> = CkptVec::new();
        v.set(0, 1);
    }

    #[test]
    fn vec_incremental_chain_equals_full() {
        let mut live: CkptVec<String> = CkptVec::new();
        let mut replica: CkptVec<String> = CkptVec::new();
        live.push("a".into());
        replica
            .apply_chunk(&live.take_chunk(CheckpointMode::Full).unwrap())
            .unwrap();
        live.push("b".into());
        live.set(0, "a2".into());
        let delta = live.take_chunk(CheckpointMode::Incremental).unwrap();
        assert!(!delta.is_full());
        replica.apply_chunk(&delta).unwrap();
        assert_eq!(replica, live);
        assert_eq!(replica.as_slice(), &["a2".to_string(), "b".to_string()]);
        live.pop();
        let delta2 = live.take_chunk(CheckpointMode::Incremental).unwrap();
        replica.apply_chunk(&delta2).unwrap();
        assert_eq!(replica, live);
        assert_eq!(replica.as_slice(), &["a2".to_string()]);
    }

    #[test]
    fn vec_delta_with_bad_index_is_error() {
        let ops: Vec<VecOp<u32>> = vec![VecOp::Set(5, 1)];
        let mut v: CkptVec<u32> = CkptVec::new();
        assert!(v.apply_chunk(&StateChunk::Delta(ops.to_bytes())).is_err());
    }

    #[test]
    fn fold_state_matches_full_image_without_side_effects() {
        use crate::StateHasher;
        let hash_of_bytes = |bytes: &[u8]| {
            let mut h = StateHasher::new();
            h.update(bytes);
            h.finish()
        };

        let mut m: CkptMap<String, u64> = CkptMap::new();
        m.insert("a".into(), 1);
        m.insert("b".into(), 2);
        let journal_before = m.journal_len();
        let mut h = StateHasher::new();
        m.fold_state(&mut h);
        let folded = h.finish();
        assert_eq!(
            m.journal_len(),
            journal_before,
            "folding must not drain the journal"
        );
        let full = m.take_chunk(CheckpointMode::Full).unwrap();
        assert_eq!(folded, hash_of_bytes(full.bytes()));

        let mut v: CkptVec<u32> = CkptVec::new();
        v.push(7);
        let mut h = StateHasher::new();
        v.fold_state(&mut h);
        let folded = h.finish();
        let full = v.take_chunk(CheckpointMode::Full).unwrap();
        assert_eq!(folded, hash_of_bytes(full.bytes()));

        let mut c = CkptCell::new(9u64);
        let mut h = StateHasher::new();
        c.fold_state(&mut h);
        let folded = h.finish();
        assert!(c.is_dirty(), "folding must not clear the dirty flag");
        let full = c.take_chunk(CheckpointMode::Full).unwrap();
        assert_eq!(folded, hash_of_bytes(full.bytes()));
    }

    #[test]
    fn debug_reprs_nonempty() {
        let m: CkptMap<u32, u32> = CkptMap::new();
        assert!(format!("{m:?}").contains("CkptMap"));
        let v: CkptVec<u32> = CkptVec::new();
        assert!(format!("{v:?}").contains("CkptVec"));
        let c = CkptCell::new(1u8);
        assert!(format!("{c:?}").contains("CkptCell"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Debug)]
    enum Op {
        Insert(u8, u32),
        Remove(u8),
        Clear,
        Checkpoint,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (any::<u8>(), any::<u32>()).prop_map(|(k, v)| Op::Insert(k, v)),
            2 => any::<u8>().prop_map(Op::Remove),
            1 => Just(Op::Clear),
            1 => Just(Op::Checkpoint),
        ]
    }

    proptest! {
        /// The replay invariant behind soft checkpoints: a replica applying
        /// the full + incremental chunk chain always matches the live state.
        #[test]
        fn replica_tracks_live_state(ops in proptest::collection::vec(arb_op(), 0..80)) {
            let mut live: CkptMap<u8, u32> = CkptMap::new();
            let mut replica: CkptMap<u8, u32> = CkptMap::new();
            let mut model: BTreeMap<u8, u32> = BTreeMap::new();
            for op in ops {
                match op {
                    Op::Insert(k, v) => {
                        live.insert(k, v);
                        model.insert(k, v);
                    }
                    Op::Remove(k) => {
                        live.remove(&k);
                        model.remove(&k);
                    }
                    Op::Clear => {
                        live.clear();
                        model.clear();
                    }
                    Op::Checkpoint => {
                        if let Some(chunk) = live.take_chunk(CheckpointMode::Incremental) {
                            replica.apply_chunk(&chunk).unwrap();
                        }
                        prop_assert_eq!(&replica, &live);
                    }
                }
            }
            // Final checkpoint reconciles everything.
            if let Some(chunk) = live.take_chunk(CheckpointMode::Incremental) {
                replica.apply_chunk(&chunk).unwrap();
            }
            prop_assert_eq!(&replica, &live);
            prop_assert_eq!(live.len(), model.len());
            for (k, v) in &model {
                prop_assert_eq!(live.get(k), Some(v));
            }
        }

        /// Full checkpoints from any point are self-contained.
        #[test]
        fn full_checkpoint_is_always_sufficient(ops in proptest::collection::vec(arb_op(), 0..40)) {
            let mut live: CkptMap<u8, u32> = CkptMap::new();
            for op in &ops {
                match op {
                    Op::Insert(k, v) => { live.insert(*k, *v); }
                    Op::Remove(k) => { live.remove(k); }
                    Op::Clear => live.clear(),
                    Op::Checkpoint => { let _ = live.take_chunk(CheckpointMode::Incremental); }
                }
            }
            let full = live.take_chunk(CheckpointMode::Full).unwrap();
            let mut fresh: CkptMap<u8, u32> = CkptMap::new();
            fresh.apply_chunk(&full).unwrap();
            prop_assert_eq!(&fresh, &live);
        }
    }
}
