//! The two-level plan cache: sharded LRUs over canonically-keyed routing
//! outcomes and per-phase Theorem-2 plans.
//!
//! Real request streams repeat permutations — collective phases, BPC
//! families, hypercube simulation rounds — so the service fronts its
//! engine pool with a cache that converts the `2⌈d/g⌉`-slot construction
//! cost into a lookup. Values are `Arc`-shared encoded plans, so a hit
//! clones a pointer, not a plan, and the same plan can be handed to any
//! number of client threads simultaneously.
//!
//! # Two levels
//!
//! * **Level 1** keys *whole requests* under [`canonical_key`] — a repeat
//!   of an identical request (any kind) is answered with the previously
//!   computed [`CachedOutcome`].
//! * **Level 2** keys *per-phase Theorem-2 plans* under [`phase_key`] (the
//!   completed permutation of one König phase). The Mei–Rizzi construction
//!   routes an h-relation as `h` completed permutations, so two different
//!   relations that share phases — e.g. the common permutation rounds of
//!   collectives — reuse each other's phase plans even though their
//!   level-1 keys differ. Plain `theorem2` requests populate level 2 too:
//!   a permutation routed once as a request later serves as a cached phase.
//!
//! # Canonical keys
//!
//! A key is the byte string `kind ‖ d ‖ g ‖ payload` ([`canonical_key`]):
//! the payload is the permutation image (or, for h-relations, the request
//! pairs **sorted**, so any ordering of the same multiset of requests hits
//! the same entry; for fault routing, the sorted fault list then the
//! image). Two requests collide only if they are semantically identical —
//! the map compares full key bytes, the hash is just the index. Any
//! differing image element, `d`, `g`, or kind changes the key. The format
//! is **stable**: it is also the on-disk key of the cache spill file
//! ([`crate::persist`]).
//!
//! # The LRU
//!
//! A slab-backed doubly-linked list threaded through a `HashMap`: `get`
//! and `insert` are O(1), eviction pops the list tail. No external
//! dependency and no unsafe.
//!
//! # One plan, one key, one hash
//!
//! Both levels store the same value type, [`CachedOutcome`]: a plan's
//! dense schedule encoding and slot count behind one `Arc`, the plan's
//! only resident form (about 45 KiB with its key at POPS(32, 32), half
//! the decoded schedule). A `theorem2` miss never builds that schedule:
//! the engine writes the encoding while it emits the plan, into the
//! exact-size buffer that becomes the entry. A `theorem2` request's
//! canonical key *is* the
//! phase key of its permutation, so a `theorem2` miss inserts one `Arc`
//! under one key into both levels: the plan is stored once, not once per
//! level. A key is a [`CacheKey`]: the
//! bytes in one shared allocation plus their FNV-1a hash, computed once
//! when the key is built. The map and the slab slot of each level, and the
//! two levels of a `theorem2` entry, all hold the same allocation. Every
//! shard choice and map lookup reuses the stored hash; a lookup reads the
//! key bytes only to confirm a match.
//!
//! # Sharding
//!
//! A [`ShardedPlanCache`] splits one logical LRU into N [`PlanCache`]
//! shards behind independent mutexes, so concurrent hits on different
//! shards never serialize. A key's shard is `fnv1a64(key) % N`. Recency
//! and eviction are per shard.
//!
//! That hash does **not** spread keys over the shards. The FNV prime is
//! odd, so bit 0 of the hash is the XOR of bit 0 of every key byte, and
//! the keys of one shape are orderings of the same bytes: with 2 shards,
//! every `theorem2` key of a shape lands in the same shard. For POPS(16,16)
//! the same holds for the low four bits, so with 16 shards every key lands
//! in shard 15. A level then holds only one shard's capacity of
//! permutation keys, and every hit takes the same mutex. The shard choice
//! stays bit-for-bit `fnv1a64(key) % N` on purpose: storing each plan and
//! key once changed no cache decision. Mixing the hash before taking the
//! shard is a separate change.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex};

use pops_network::{codec, Schedule};
use pops_permutation::Permutation;

use crate::frame;
use crate::metrics::RequestKind;
use crate::service::ServiceRequest;

const NIL: usize = usize::MAX;

/// A cache key: the canonical key bytes in one shared allocation, with
/// their FNV-1a hash computed once at construction. Cloning bumps a
/// reference count, so every holder of a key shares its bytes.
///
/// ```
/// use pops_service::CacheKey;
///
/// let key = CacheKey::from(&b"plan"[..]);
/// assert_eq!(key, CacheKey::from(&b"plan"[..]));
/// assert_eq!(key.clone().as_bytes(), b"plan");
/// ```
#[derive(Clone)]
pub struct CacheKey(Arc<KeyBytes>);

struct KeyBytes {
    fnv: u64,
    bytes: Box<[u8]>,
}

impl CacheKey {
    /// Wraps `bytes`, hashing them once.
    pub(crate) fn new(bytes: Box<[u8]>) -> Self {
        Self(Arc::new(KeyBytes {
            fnv: fnv1a64(&bytes),
            bytes,
        }))
    }

    /// The key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0.bytes
    }

    /// The FNV-1a hash of the key bytes, as computed at construction.
    pub(crate) fn fnv1a(&self) -> u64 {
        self.0.fnv
    }

    /// Whether `self` and `other` hold the same allocation (not merely
    /// equal bytes).
    #[cfg(test)]
    pub(crate) fn shares_bytes_with(&self, other: &CacheKey) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl From<&[u8]> for CacheKey {
    fn from(bytes: &[u8]) -> Self {
        Self::new(bytes.into())
    }
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &Self) -> bool {
        self.0.fnv == other.0.fnv && self.0.bytes == other.0.bytes
    }
}

impl Eq for CacheKey {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.fnv);
    }
}

impl std::fmt::Debug for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheKey")
            .field("fnv1a", &format_args!("{:#018x}", self.0.fnv))
            .field("bytes", &self.as_bytes())
            .finish()
    }
}

/// The map hasher of a [`PlanCache`]: it takes a [`CacheKey`]'s stored
/// FNV-1a value and mixes it with the splitmix64 finaliser, so the map's
/// bucket bits depend on every bit of the hash (its low bits alone barely
/// depend on byte order; see the module docs). It never reads the key
/// bytes.
///
/// Keys come from clients and FNV-1a is unkeyed, so unlike the std
/// default hasher this gives no protection against keys crafted to share
/// one 64-bit hash. Such keys share one probe sequence, and a lookup then
/// compares at most the shard's capacity of keys: the cost is bounded by
/// configuration, not by the client.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(fnv1a64(bytes));
    }

    fn write_u64(&mut self, fnv: u64) {
        let mut z = self.0 ^ fnv;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.0 = z ^ (z >> 31);
    }
}

/// Builds the canonical cache key of `req` on a POPS(d, g) service.
pub fn canonical_key(d: usize, g: usize, req: &ServiceRequest) -> CacheKey {
    let payload = match req {
        ServiceRequest::Theorem2 { pi }
        | ServiceRequest::SingleSlot { pi }
        | ServiceRequest::Direct { pi }
        | ServiceRequest::Structured { pi } => 4 * pi.len(),
        ServiceRequest::HRelation { relation } => 4 + 8 * relation.requests().len(),
        ServiceRequest::WithFaults { pi, faults } => 4 + 4 * faults.failed_count() + 4 * pi.len(),
    };
    let mut key = Vec::with_capacity(9 + payload);
    key.push(req.kind().index() as u8);
    key.extend_from_slice(&(d as u32).to_le_bytes());
    key.extend_from_slice(&(g as u32).to_le_bytes());
    let push_image = |key: &mut Vec<u8>, image: &[usize]| {
        for &v in image {
            key.extend_from_slice(&(v as u32).to_le_bytes());
        }
    };
    match req {
        ServiceRequest::Theorem2 { pi }
        | ServiceRequest::SingleSlot { pi }
        | ServiceRequest::Direct { pi }
        | ServiceRequest::Structured { pi } => push_image(&mut key, pi.as_slice()),
        ServiceRequest::HRelation { relation } => {
            let mut pairs: Vec<(usize, usize)> = relation.requests().to_vec();
            pairs.sort_unstable();
            key.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (src, dst) in pairs {
                key.extend_from_slice(&(src as u32).to_le_bytes());
                key.extend_from_slice(&(dst as u32).to_le_bytes());
            }
        }
        ServiceRequest::WithFaults { pi, faults } => {
            let mut failed: Vec<usize> = faults.iter_failed().collect();
            failed.sort_unstable();
            key.extend_from_slice(&(failed.len() as u32).to_le_bytes());
            for c in failed {
                key.extend_from_slice(&(c as u32).to_le_bytes());
            }
            push_image(&mut key, pi.as_slice());
        }
    }
    CacheKey::new(key.into_boxed_slice())
}

/// Builds the level-2 cache key of one routing *phase*: the completed
/// permutation a König phase routes by Theorem 2. Byte-identical to
/// [`canonical_key`] of a `Theorem2` request over the same permutation, so
/// a permutation routed as a plain request and the same permutation
/// appearing as an h-relation phase share one level-2 entry.
pub fn phase_key(d: usize, g: usize, completed: &Permutation) -> CacheKey {
    let mut key = Vec::with_capacity(9 + 4 * completed.len());
    key.push(RequestKind::Theorem2.index() as u8);
    key.extend_from_slice(&(d as u32).to_le_bytes());
    key.extend_from_slice(&(g as u32).to_le_bytes());
    for &v in completed.as_slice() {
        key.extend_from_slice(&(v as u32).to_le_bytes());
    }
    CacheKey::new(key.into_boxed_slice())
}

/// The cached value type of both levels: one plan as its dense schedule
/// encoding ([`pops_network::codec`]'s bytes) and its slot count, behind
/// one `Arc`. Cloning bumps a reference count.
///
/// The bytes are the only resident form of a cached plan: 20 bytes per
/// unicast transmission, about half the decoded [`Schedule`] and with no
/// construction artefacts. A dense reply copies them behind its header, a
/// spill writes them as they are, and whoever needs the schedule itself
/// (a JSON reply, an in-process caller through [`crate::ReplyOutcome`])
/// decodes it.
///
/// A value is built in one of four ways, each of which yields bytes that
/// always decode:
///
/// * a Theorem-2 plan the engine wrote straight into its encoding
///   ([`pops_core::RoutingEngine::plan_theorem2_into`]): `theorem2`
///   misses and level-2 phase misses, which never build a [`Schedule`];
/// * an h-relation's phase entries joined under one slot count;
/// * an encoded [`Schedule`], for every other request kind;
/// * spill bytes the schedule reader validated.
///
/// ```
/// use pops_network::PopsTopology;
/// use pops_permutation::families::vector_reversal;
/// use pops_service::{RoutingService, ServiceRequest};
///
/// let service = RoutingService::new(PopsTopology::new(4, 4));
/// let req = ServiceRequest::Theorem2 { pi: vector_reversal(16) };
/// let reply = service.route(&req).unwrap();
/// let cached = reply.outcome.cached();
/// assert_eq!(cached.slot_count(), 2);
/// // Two slots of 16 unicast transmissions, 20 bytes each.
/// assert_eq!(cached.schedule_bytes().len(), 4 + 2 * (4 + 16 * 20));
/// ```
#[derive(Clone)]
pub struct CachedOutcome(Arc<EncodedPlan>);

struct EncodedPlan {
    slots: usize,
    bytes: Box<[u8]>,
}

impl CachedOutcome {
    /// Encodes `schedule` into an exact-size buffer.
    pub(crate) fn encode(schedule: &Schedule) -> Self {
        let mut bytes = Vec::with_capacity(codec::encoded_len(schedule));
        frame::encode(&mut bytes, schedule);
        Self::written(schedule.slot_count(), bytes)
    }

    /// Wraps a schedule of `slots` slots that a planner wrote with the
    /// codec's writers (or [`codec::encode_schedule`]). The buffer becomes
    /// the entry as it is; size it exactly.
    pub(crate) fn written(slots: usize, bytes: Vec<u8>) -> Self {
        Self::from_parts(slots, bytes.into_boxed_slice())
    }

    /// Joins `parts` into one schedule that runs them in order: one slot
    /// count, then every part's slots. An h-relation's entry is its
    /// phases' entries joined.
    pub(crate) fn join(parts: &[CachedOutcome]) -> Self {
        let slots = parts.iter().map(CachedOutcome::slot_count).sum();
        let len = 4 + parts
            .iter()
            .map(|part| part.slot_bytes().len())
            .sum::<usize>();
        let mut bytes = Vec::with_capacity(len);
        codec::push_u32(&mut bytes, slots);
        for part in parts {
            bytes.extend_from_slice(part.slot_bytes());
        }
        Self::written(slots, bytes)
    }

    /// The encoded slots, without the slot count that leads them.
    fn slot_bytes(&self) -> &[u8] {
        self.0.bytes.get(4..).unwrap_or_default()
    }

    /// Wraps bytes [`codec::read_encoded_schedule`] accepted, with the
    /// slot count it read.
    pub(crate) fn from_validated(slots: usize, bytes: &[u8]) -> Self {
        Self::from_parts(slots, bytes.into())
    }

    fn from_parts(slots: usize, bytes: Box<[u8]>) -> Self {
        Self(Arc::new(EncodedPlan { slots, bytes }))
    }

    /// Slots in the plan's schedule, read without decoding it.
    pub fn slot_count(&self) -> usize {
        self.0.slots
    }

    /// The schedule's dense encoding.
    pub fn schedule_bytes(&self) -> &[u8] {
        &self.0.bytes
    }

    /// The plan as a dense reply body: its bytes, copied as they are.
    pub(crate) fn body(&self) -> frame::Body<'_> {
        frame::Body::Encoded {
            slots: self.0.slots,
            bytes: &self.0.bytes,
        }
    }

    /// The schedule, decoded into a fresh value.
    pub(crate) fn decode(&self) -> Schedule {
        let mut reader = codec::Reader::new(&self.0.bytes, "cached plan");
        let decoded = codec::decode_schedule(&mut reader);
        // Only bytes that always decode are ever wrapped (see the type
        // docs), so the decode cannot fail.
        debug_assert!(decoded.is_ok(), "a cached plan failed to decode");
        decoded.unwrap_or_default()
    }

    /// Whether `self` and `other` hold the same allocation.
    #[cfg(test)]
    pub(crate) fn ptr_eq(&self, other: &CachedOutcome) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }

    /// Holders of this plan's allocation (a reply, each cache level that
    /// stores it, any clone).
    #[cfg(test)]
    pub(crate) fn holders(&self) -> usize {
        Arc::strong_count(&self.0)
    }
}

impl std::fmt::Debug for CachedOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedOutcome")
            .field("slots", &self.0.slots)
            .field("bytes", &self.0.bytes.len())
            .finish()
    }
}

struct Slot<V> {
    key: CacheKey,
    value: V,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU map from cache keys to values — one shard of a
/// [`ShardedPlanCache`] (the service instantiates both levels at
/// `V = `[`CachedOutcome`]). The map and the slab slot of an entry share
/// one [`CacheKey`]. Capacity 0 disables caching entirely.
///
/// ```
/// use pops_service::{CacheKey, PlanCache};
///
/// let key = |bytes: &[u8]| CacheKey::from(bytes);
/// let mut cache: PlanCache<u32> = PlanCache::new(2);
/// cache.insert(key(b"a"), 1);
/// cache.insert(key(b"b"), 2);
/// assert_eq!(cache.get(&key(b"a")), Some(1)); // "a" is now most recent
/// cache.insert(key(b"c"), 3); // evicts "b"
/// assert_eq!(cache.get(&key(b"b")), None);
/// assert_eq!(cache.len(), 2);
/// ```
pub struct PlanCache<V> {
    capacity: usize,
    map: HashMap<CacheKey, usize, BuildHasherDefault<KeyHasher>>,
    slots: Vec<Slot<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<V: Clone> PlanCache<V> {
    /// An empty cache holding at most `capacity` plans.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity_and_hasher(capacity.min(1 << 20), Default::default()),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The eviction capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Looks `key` up, marking the entry most-recently-used on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<V> {
        let &idx = self.map.get(key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(self.slots[idx].value.clone())
    }

    /// Inserts (or refreshes) `key → value`, evicting the least-recently-
    /// used entry if the cache is full.
    pub fn insert(&mut self, key: CacheKey, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&idx) = self.map.get(&key) {
            self.slots[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        if self.map.len() == self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            self.map.remove(&self.slots[lru].key);
            self.free.push(lru);
        }
        let slot = Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = slot;
                idx
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }

    /// Drops every entry (capacity is kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Visits every entry from least- to most-recently used **without**
    /// touching recency — the spill path ([`crate::persist`]) writes
    /// entries in this order so a later restore, which inserts in file
    /// order, reproduces the same recency ranking.
    pub fn for_each_lru(&self, mut f: impl FnMut(&CacheKey, &V)) {
        let mut idx = self.tail;
        while idx != NIL {
            let slot = &self.slots[idx];
            f(&slot.key, &slot.value);
            idx = slot.prev;
        }
    }

    /// The stored key and value of `key`'s entry, without touching
    /// recency.
    #[cfg(test)]
    fn peek(&self, key: &CacheKey) -> Option<(CacheKey, V)> {
        let &idx = self.map.get(key)?;
        let slot = &self.slots[idx];
        Some((slot.key.clone(), slot.value.clone()))
    }
}

impl<V> std::fmt::Debug for PlanCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("len", &self.map.len())
            .finish()
    }
}

/// FNV-1a over a byte string — the hash a [`CacheKey`] stores (and so the
/// shard selector), and the integrity checksum of the spill file
/// ([`crate::persist`]). FNV is dependency-free and two lines.
pub(crate) fn fnv1a64(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A concurrent LRU: N key-hashed [`PlanCache`] shards behind independent
/// mutexes. Hits on different shards proceed in parallel; total capacity
/// is split evenly across shards (remainder to the first shards), so the
/// logical capacity is exactly what was asked for.
///
/// ```
/// use pops_service::cache::{CacheKey, ShardedPlanCache};
///
/// let cache: ShardedPlanCache<u32> = ShardedPlanCache::new(100, 8);
/// assert_eq!((cache.capacity(), cache.shard_count()), (100, 8));
/// let plan = CacheKey::from(&b"plan"[..]);
/// cache.insert(plan.clone(), 7);
/// assert_eq!(cache.get(&plan), Some(7));
/// assert_eq!(cache.get(&CacheKey::from(&b"other"[..])), None);
/// assert_eq!(cache.len(), 1);
/// ```
pub struct ShardedPlanCache<V> {
    shards: Vec<Mutex<PlanCache<V>>>,
    capacity: usize,
}

impl<V: Clone> ShardedPlanCache<V> {
    /// A cache of total capacity `capacity` split over `shards` shards
    /// (clamped to at least 1; capacity 0 disables caching entirely).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).min(capacity.max(1));
        let base = capacity / shards;
        let extra = capacity % shards;
        Self {
            shards: (0..shards)
                .map(|s| Mutex::new(PlanCache::new(base + usize::from(s < extra))))
                .collect(),
            capacity,
        }
    }

    /// Number of shards (independent locks).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total eviction capacity across shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| self.lock(s).len()).sum()
    }

    /// Whether no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| self.lock(s).is_empty())
    }

    fn lock<'a>(&self, shard: &'a Mutex<PlanCache<V>>) -> std::sync::MutexGuard<'a, PlanCache<V>> {
        shard
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// `key`'s shard: its stored FNV-1a hash modulo the shard count.
    fn shard_of(&self, key: &CacheKey) -> &Mutex<PlanCache<V>> {
        &self.shards[(key.fnv1a() % self.shards.len() as u64) as usize]
    }

    /// Looks `key` up in its shard, marking the entry most-recently-used
    /// there on a hit. Only that shard's lock is taken.
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        self.lock(self.shard_of(key)).get(key)
    }

    /// Inserts (or refreshes) `key → value` in its shard, evicting that
    /// shard's least-recently-used entry if the shard is full.
    pub fn insert(&self, key: CacheKey, value: V) {
        self.lock(self.shard_of(&key)).insert(key, value);
    }

    /// Drops every entry in every shard (capacities are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            self.lock(shard).clear();
        }
    }

    /// Visits every entry, shard by shard, least-recently-used first
    /// within each shard (see [`PlanCache::for_each_lru`]). Takes one
    /// shard lock at a time.
    pub fn for_each_lru(&self, mut f: impl FnMut(&CacheKey, &V)) {
        for shard in &self.shards {
            self.lock(shard).for_each_lru(&mut f);
        }
    }

    /// The stored key and value of `key`'s entry, without touching
    /// recency.
    #[cfg(test)]
    pub(crate) fn peek(&self, key: &CacheKey) -> Option<(CacheKey, V)> {
        self.lock(self.shard_of(key)).peek(key)
    }
}

impl<V> std::fmt::Debug for ShardedPlanCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPlanCache")
            .field("shards", &self.shards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_core::HRelation;
    use pops_network::FaultSet;
    use pops_network::PopsTopology;
    use pops_permutation::families::vector_reversal;

    fn key_of(bytes: &[u8]) -> CacheKey {
        CacheKey::from(bytes)
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache: PlanCache<u32> = PlanCache::new(2);
        cache.insert(key_of(b"a"), 1);
        cache.insert(key_of(b"b"), 2);
        assert_eq!(cache.get(&key_of(b"a")), Some(1)); // a is now MRU
        cache.insert(key_of(b"c"), 3); // evicts b
        assert_eq!(cache.get(&key_of(b"b")), None);
        assert_eq!(cache.get(&key_of(b"a")), Some(1));
        assert_eq!(cache.get(&key_of(b"c")), Some(3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut cache: PlanCache<u32> = PlanCache::new(2);
        cache.insert(key_of(b"a"), 1);
        cache.insert(key_of(b"b"), 2);
        cache.insert(key_of(b"a"), 10); // refresh, a becomes MRU
        cache.insert(key_of(b"c"), 3); // evicts b
        assert_eq!(cache.get(&key_of(b"a")), Some(10));
        assert_eq!(cache.get(&key_of(b"b")), None);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache: PlanCache<u32> = PlanCache::new(0);
        cache.insert(key_of(b"a"), 1);
        assert_eq!(cache.get(&key_of(b"a")), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn eviction_slots_are_reused() {
        let mut cache: PlanCache<u32> = PlanCache::new(3);
        for round in 0u32..50 {
            cache.insert(key_of(format!("k{round}").as_bytes()), round);
        }
        assert_eq!(cache.len(), 3);
        assert!(cache.slots.len() <= 4, "slab must recycle evicted slots");
        assert_eq!(cache.get(&key_of(b"k49")), Some(49));
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn canonical_keys_separate_kinds_and_shapes() {
        let pi = vector_reversal(16);
        let theorem2 = ServiceRequest::Theorem2 { pi: pi.clone() };
        let direct = ServiceRequest::Direct { pi: pi.clone() };
        let k44 = canonical_key(4, 4, &theorem2);
        assert_eq!(
            k44,
            canonical_key(4, 4, &ServiceRequest::Theorem2 { pi: pi.clone() })
        );
        assert_ne!(k44, canonical_key(4, 4, &direct), "kind must separate");
        assert_ne!(
            k44,
            canonical_key(2, 8, &theorem2),
            "same n, different (d, g)"
        );
        assert_ne!(k44, canonical_key(8, 2, &theorem2));
    }

    #[test]
    fn h_relation_keys_canonicalize_request_order() {
        let a = ServiceRequest::HRelation {
            relation: HRelation::new(6, vec![(0, 1), (2, 5), (1, 0)]).unwrap(),
        };
        let b = ServiceRequest::HRelation {
            relation: HRelation::new(6, vec![(2, 5), (1, 0), (0, 1)]).unwrap(),
        };
        let c = ServiceRequest::HRelation {
            relation: HRelation::new(6, vec![(2, 5), (1, 0), (0, 2)]).unwrap(),
        };
        assert_eq!(canonical_key(2, 3, &a), canonical_key(2, 3, &b));
        assert_ne!(canonical_key(2, 3, &a), canonical_key(2, 3, &c));
    }

    #[test]
    fn phase_key_matches_theorem2_canonical_key() {
        let pi = vector_reversal(16);
        assert_eq!(
            phase_key(4, 4, &pi),
            canonical_key(4, 4, &ServiceRequest::Theorem2 { pi: pi.clone() }),
            "phase keys must alias theorem2 request keys"
        );
        assert_ne!(phase_key(4, 4, &pi), phase_key(2, 8, &pi));
    }

    #[test]
    fn for_each_lru_walks_tail_to_head() {
        let mut cache: PlanCache<u32> = PlanCache::new(3);
        cache.insert(key_of(b"a"), 1);
        cache.insert(key_of(b"b"), 2);
        cache.insert(key_of(b"c"), 3);
        assert_eq!(cache.get(&key_of(b"a")), Some(1)); // a becomes MRU
        let mut seen = Vec::new();
        cache.for_each_lru(|key, &v| seen.push((key.as_bytes().to_vec(), v)));
        assert_eq!(
            seen,
            vec![
                (b"b".to_vec(), 2), // LRU first
                (b"c".to_vec(), 3),
                (b"a".to_vec(), 1), // MRU last
            ]
        );
    }

    #[test]
    fn sharded_cache_round_trips_and_bounds_capacity() {
        let cache: ShardedPlanCache<u32> = ShardedPlanCache::new(10, 4);
        assert_eq!(cache.capacity(), 10, "capacity split must sum back");
        assert_eq!(cache.shard_count(), 4);
        for i in 0u32..100 {
            cache.insert(key_of(format!("k{i}").as_bytes()), i);
        }
        assert!(cache.len() <= 10, "len {} exceeds capacity", cache.len());
        assert!(!cache.is_empty());
        let mut visited = 0;
        cache.for_each_lru(|_, _| visited += 1);
        assert_eq!(visited, cache.len());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn sharded_cache_clamps_shards_to_capacity() {
        // 2 entries over 16 requested shards: no shard may get capacity 0,
        // which would silently drop inserts routed to it.
        let cache: ShardedPlanCache<u32> = ShardedPlanCache::new(2, 16);
        assert!(cache.shard_count() <= 2);
        for i in 0u32..20 {
            cache.insert(key_of(format!("k{i}").as_bytes()), i);
        }
        assert!((1..=2).contains(&cache.len()), "len {}", cache.len());
        // Zero capacity still disables caching, sharded or not.
        let off: ShardedPlanCache<u32> = ShardedPlanCache::new(0, 8);
        off.insert(key_of(b"a"), 1);
        assert_eq!(off.get(&key_of(b"a")), None);
    }

    #[test]
    fn sharded_cache_is_concurrently_usable() {
        let cache: Arc<ShardedPlanCache<u64>> = Arc::new(ShardedPlanCache::new(256, 8));
        std::thread::scope(|scope| {
            for worker in 0u64..8 {
                let cache = cache.clone();
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let key = key_of(format!("w{worker}-{i}").as_bytes());
                        cache.insert(key.clone(), worker * 1000 + i);
                        // The entry may have been evicted by concurrent
                        // inserts, but a hit must never be a wrong value.
                        let got = cache.get(&key);
                        assert!(got.is_none() || got == Some(worker * 1000 + i));
                    }
                });
            }
        });
        assert!(cache.len() <= 256);
    }

    #[test]
    fn fault_keys_include_the_fault_set() {
        let t = PopsTopology::new(2, 3);
        let pi = vector_reversal(6);
        let none = FaultSet::none(&t);
        let mut one = FaultSet::none(&t);
        one.fail_coupler(3);
        let k_none = canonical_key(
            2,
            3,
            &ServiceRequest::WithFaults {
                pi: pi.clone(),
                faults: none,
            },
        );
        let k_one = canonical_key(
            2,
            3,
            &ServiceRequest::WithFaults {
                pi: pi.clone(),
                faults: one,
            },
        );
        assert_ne!(k_none, k_one);
    }

    #[test]
    fn map_and_slot_share_one_key_allocation() {
        let mut cache: PlanCache<u32> = PlanCache::new(2);
        let key = key_of(b"plan");
        cache.insert(key.clone(), 1);
        let (stored, value) = cache.peek(&key_of(b"plan")).unwrap();
        assert_eq!(value, 1);
        assert!(
            stored.shares_bytes_with(&key),
            "the slot holds the caller's key"
        );
        // The caller's handle, the map key, the slot key and `stored`.
        assert_eq!(Arc::strong_count(&key.0), 4);
        drop(stored);
        cache.insert(key_of(b"x"), 2);
        cache.insert(key_of(b"y"), 3); // evicts "plan"
        assert_eq!(
            Arc::strong_count(&key.0),
            1,
            "eviction releases both holders"
        );
    }

    #[test]
    fn keys_hash_once_and_compare_by_bytes() {
        let pi = vector_reversal(16);
        let a = canonical_key(4, 4, &ServiceRequest::Theorem2 { pi: pi.clone() });
        let b = phase_key(4, 4, &pi);
        assert_eq!(a.fnv1a(), fnv1a64(a.as_bytes()));
        assert_eq!(a, b);
        assert!(
            !a.shares_bytes_with(&b),
            "equal bytes, separate allocations"
        );
        assert_eq!(a.as_bytes().len(), 9 + 4 * 16);
    }

    #[test]
    fn shard_choice_is_fnv_modulo_the_shard_count() {
        let mut rng = pops_permutation::SplitMix64::new(5);
        for shards in [1usize, 2, 3, 16] {
            let cache: ShardedPlanCache<u32> = ShardedPlanCache::new(1024, shards);
            for i in 0..64u32 {
                let pi = pops_permutation::families::random_permutation(16, &mut rng);
                let key = canonical_key(4, 4, &ServiceRequest::Theorem2 { pi });
                cache.insert(key.clone(), i);
                let want = (fnv1a64(key.as_bytes()) % shards as u64) as usize;
                let shard = cache.shards[want].lock().unwrap();
                assert!(shard.peek(&key).is_some(), "{shards} shards, key {i}");
            }
        }
    }
}
