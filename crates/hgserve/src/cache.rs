//! LRU result cache keyed by `(dataset, epoch, query)` strings.
//!
//! One `Mutex` guards the whole cache. The event loop makes every
//! lookup, and a worker inserts at most once per kernel run, so there
//! is no contention to spread over several locks. Entries form an
//! intrusive doubly-linked LRU list over a slab (`Vec<Node>` + free
//! list) with a `HashMap` index, giving O(1) get / insert / evict.
//!
//! Capacity is accounted in **bytes** (key + value + fixed per-node
//! overhead), not entry counts, because cached bodies range from a
//! 100-byte health payload to multi-megabyte degree histograms. Any
//! value that fits the budget is cached, evicting the least recently
//! used entries; a larger one is not cached at all.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Fixed per-entry overhead charged on top of key/value bytes: the
/// node, the map entry, and the two `Arc` headers, rounded up.
const NODE_OVERHEAD: usize = 96;

const NIL: usize = usize::MAX;

/// Point-in-time cache statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Bytes currently charged against the capacity.
    pub bytes: u64,
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
}

struct Node {
    key: Arc<str>,
    value: Arc<String>,
    size: usize,
    prev: usize,
    next: usize,
}

#[derive(Default)]
struct Lru {
    map: HashMap<Arc<str>, usize>,
    nodes: Vec<Node>,
    free: Vec<usize>,
    /// Most recently used, or NIL when empty.
    head: usize,
    /// Least recently used, or NIL when empty.
    tail: usize,
    bytes: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl Lru {
    fn new() -> Self {
        Lru {
            head: NIL,
            tail: NIL,
            ..Lru::default()
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
        self.nodes[i].prev = NIL;
        self.nodes[i].next = NIL;
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.nodes[h].prev = i,
        }
        self.head = i;
    }

    fn evict_lru(&mut self) {
        let t = self.tail;
        debug_assert_ne!(t, NIL);
        self.unlink(t);
        let node = &mut self.nodes[t];
        self.map.remove(&node.key);
        self.bytes -= node.size;
        node.value = Arc::new(String::new());
        self.free.push(t);
        self.evictions += 1;
    }
}

/// The byte-budgeted LRU described in the module docs.
pub struct ResultCache {
    lru: Mutex<Lru>,
    /// Byte budget.
    capacity: usize,
}

impl ResultCache {
    /// A cache holding at most `capacity_bytes` (0 caches nothing).
    pub fn new(capacity_bytes: usize) -> Self {
        ResultCache {
            lru: Mutex::new(Lru::new()),
            capacity: capacity_bytes,
        }
    }

    /// Look `key` up, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: &str) -> Option<Arc<String>> {
        let mut lru = self.lru.lock().expect("result cache lock poisoned");
        match lru.map.get(key).copied() {
            Some(i) => {
                lru.unlink(i);
                lru.push_front(i);
                lru.hits += 1;
                Some(Arc::clone(&lru.nodes[i].value))
            }
            None => {
                lru.misses += 1;
                None
            }
        }
    }

    /// Insert or replace `key`, evicting least-recently-used entries
    /// until the cache fits its budget. Oversized values are skipped.
    pub fn insert(&self, key: &str, value: Arc<String>) {
        let size = key.len() + value.len() + NODE_OVERHEAD;
        if size > self.capacity {
            return;
        }
        let mut lru = self.lru.lock().expect("result cache lock poisoned");
        if let Some(&i) = lru.map.get(key) {
            lru.bytes = lru.bytes - lru.nodes[i].size + size;
            lru.nodes[i].value = value;
            lru.nodes[i].size = size;
            lru.unlink(i);
            lru.push_front(i);
        } else {
            let key: Arc<str> = Arc::from(key);
            let node = Node {
                key: Arc::clone(&key),
                value,
                size,
                prev: NIL,
                next: NIL,
            };
            let i = match lru.free.pop() {
                Some(i) => {
                    lru.nodes[i] = node;
                    i
                }
                None => {
                    lru.nodes.push(node);
                    lru.nodes.len() - 1
                }
            };
            lru.map.insert(key, i);
            lru.bytes += size;
            lru.push_front(i);
            lru.insertions += 1;
        }
        while lru.bytes > self.capacity {
            lru.evict_lru();
        }
    }

    /// Drop every entry (statistics other than `entries`/`bytes` persist).
    pub fn clear(&self) {
        let mut lru = self.lru.lock().expect("result cache lock poisoned");
        *lru = Lru {
            hits: lru.hits,
            misses: lru.misses,
            insertions: lru.insertions,
            evictions: lru.evictions + lru.map.len() as u64,
            ..Lru::new()
        };
    }

    pub fn stats(&self) -> CacheStats {
        let lru = self.lru.lock().expect("result cache lock poisoned");
        CacheStats {
            hits: lru.hits,
            misses: lru.misses,
            insertions: lru.insertions,
            evictions: lru.evictions,
            entries: lru.map.len() as u64,
            bytes: lru.bytes as u64,
            capacity_bytes: self.capacity as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn val(s: &str) -> Arc<String> {
        Arc::new(s.to_string())
    }

    /// Keys from most to least recently used.
    fn keys_mru_to_lru(c: &ResultCache) -> Vec<String> {
        let lru = c.lru.lock().unwrap();
        let mut out = Vec::with_capacity(lru.map.len());
        let mut i = lru.head;
        while i != NIL {
            out.push(lru.nodes[i].key.to_string());
            i = lru.nodes[i].next;
        }
        out
    }

    #[test]
    fn get_promotes_and_eviction_is_lru_order() {
        // Room for exactly three one-byte-key entries.
        let entry = 1 + 1 + NODE_OVERHEAD;
        let c = ResultCache::new(3 * entry);
        c.insert("a", val("1"));
        c.insert("b", val("2"));
        c.insert("c", val("3"));
        assert_eq!(keys_mru_to_lru(&c), vec!["c", "b", "a"]);

        // Touch `a`: it becomes MRU, so `b` is now the LRU victim.
        assert_eq!(c.get("a").unwrap().as_str(), "1");
        assert_eq!(keys_mru_to_lru(&c), vec!["a", "c", "b"]);
        c.insert("d", val("4"));
        assert!(c.get("b").is_none(), "LRU entry b should have been evicted");
        assert!(c.get("a").is_some());
        assert!(c.get("c").is_some());
        assert!(c.get("d").is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn capacity_accounting_tracks_bytes_exactly() {
        let c = ResultCache::new(10_000);
        c.insert("key1", val("0123456789"));
        let expect = ("key1".len() + 10 + NODE_OVERHEAD) as u64;
        assert_eq!(c.stats().bytes, expect);
        // Replacing with a larger value adjusts, not duplicates.
        c.insert("key1", val("0123456789abcdef"));
        let expect = ("key1".len() + 16 + NODE_OVERHEAD) as u64;
        assert_eq!(c.stats().bytes, expect);
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.stats().insertions, 1, "replacement is not an insertion");
        c.clear();
        assert_eq!(c.stats().bytes, 0);
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn oversized_value_is_not_cached() {
        let c = ResultCache::new(200);
        c.insert("big", Arc::new("x".repeat(500)));
        assert!(c.get("big").is_none());
        assert_eq!(c.stats().entries, 0);
    }

    #[test]
    fn eviction_cascade_frees_enough_space() {
        let entry = 1 + 8 + NODE_OVERHEAD;
        let c = ResultCache::new(4 * entry);
        for k in ["a", "b", "c", "d"] {
            c.insert(k, Arc::new("12345678".to_string()));
        }
        // One entry three times the size of the small ones evicts several.
        c.insert("E", Arc::new("x".repeat(3 * entry - NODE_OVERHEAD - 1)));
        let st = c.stats();
        assert!(st.bytes <= 4 * entry as u64, "over budget: {st:?}");
        assert!(c.get("E").is_some());
        assert!(st.evictions >= 2, "{st:?}");
    }

    #[test]
    fn hit_and_miss_counters() {
        let c = ResultCache::new(10_000);
        assert!(c.get("nope").is_none());
        c.insert("k", val("v"));
        assert!(c.get("k").is_some());
        assert!(c.get("k").is_some());
        let st = c.stats();
        assert_eq!((st.hits, st.misses), (2, 1));
    }

    #[test]
    fn slab_reuses_freed_nodes() {
        let entry = 1 + 1 + NODE_OVERHEAD;
        let c = ResultCache::new(2 * entry);
        for i in 0..100 {
            c.insert(if i % 2 == 0 { "a" } else { "b" }, val("x"));
            c.insert("c", val("y"));
        }
        let lru = c.lru.lock().unwrap();
        assert!(
            lru.nodes.len() <= 4,
            "slab grew unbounded: {}",
            lru.nodes.len()
        );
    }
}
