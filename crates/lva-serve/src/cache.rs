//! The content-addressed result cache: an in-memory LRU tier in front
//! of an atomic-rename disk store.
//!
//! Entries are complete manifest texts keyed by the point fingerprint
//! ([`crate::fingerprint`]). Because a manifest is a deterministic
//! function of its key's preimage, the cache never needs invalidation
//! logic: an entry is either byte-correct or (after a schema bump that
//! changes the keys) simply never looked up again.
//!
//! Disk layout: one file per entry, `lva-<16-hex-digit key>.json`,
//! written through [`lva_obs::write_atomic`] — the same
//! stage-then-rename idiom as the manifest writer, so a crash mid-write
//! can leave a stale `.lva-….json.tmp.<pid>` staging file but never a
//! half-written entry under its final name. Opening a cache directory
//! sweeps those stale staging files; reads that find a corrupt entry
//! (truncated by an external actor, bit-rotted, hand-edited) delete it
//! and report a miss, so the point is recomputed rather than served
//! wrong or erroring.

use lva_obs::RunRecord;
use std::collections::HashMap;
use std::path::PathBuf;

/// A two-tier (memory LRU + disk) cache of manifest texts keyed by
/// point fingerprint.
#[derive(Debug)]
pub struct ResultCache {
    /// Memory tier: key → (text, last-use stamp). The stamp is a logical
    /// clock, not wall time — eviction needs only relative order.
    entries: HashMap<u64, (String, u64)>,
    clock: u64,
    capacity: usize,
    dir: Option<PathBuf>,
}

impl ResultCache {
    /// An in-memory-only cache holding at most `capacity` entries
    /// (minimum 1).
    #[must_use]
    pub fn in_memory(capacity: usize) -> Self {
        ResultCache {
            entries: HashMap::new(),
            clock: 0,
            capacity: capacity.max(1),
            dir: None,
        }
    }

    /// A disk-backed cache rooted at `dir` (created if absent). Stale
    /// staging files from interrupted writes are removed on open;
    /// anything else in the directory is left alone.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the directory cannot be created or
    /// scanned.
    pub fn open(dir: impl Into<PathBuf>, capacity: usize) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            // `write_atomic` stages as `.<final-name>.tmp.<pid>`; any
            // such file at open time is an interrupted write from a dead
            // process. Best-effort removal: a failure to clean is not a
            // failure to open.
            if name.starts_with('.') && name.contains(".tmp.") {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        let mut cache = Self::in_memory(capacity);
        cache.dir = Some(dir);
        Ok(cache)
    }

    /// Number of entries in the memory tier.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the memory tier is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The disk path of a key's entry, if this cache has a disk tier.
    #[must_use]
    pub(crate) fn entry_path(&self, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|d| d.join(format!("lva-{key:016x}.json")))
    }

    /// Looks up a manifest text, consulting memory first, then disk. A
    /// disk hit is promoted into the memory tier. A corrupt disk entry
    /// (unparseable as a [`RunRecord`]) is deleted and reported as a
    /// miss — the caller recomputes and overwrites it.
    pub fn get(&mut self, key: u64) -> Option<String> {
        self.clock += 1;
        if let Some((text, stamp)) = self.entries.get_mut(&key) {
            *stamp = self.clock;
            return Some(text.clone());
        }
        let path = self.entry_path(key)?;
        let text = std::fs::read_to_string(&path).ok()?;
        if RunRecord::parse(&text).is_err() {
            let _ = std::fs::remove_file(&path);
            return None;
        }
        self.insert_memory(key, text.clone());
        Some(text)
    }

    /// Stores a manifest text under `key` in both tiers. Disk write
    /// failures are swallowed (the cache is an accelerator, not a store
    /// of record) — the memory tier still serves the entry.
    pub fn put(&mut self, key: u64, text: String) {
        if let Some(path) = self.entry_path(key) {
            let _ = lva_obs::write_atomic(&path, &text);
        }
        self.clock += 1;
        self.insert_memory(key, text);
    }

    fn insert_memory(&mut self, key: u64, text: String) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            // Evict the least-recently-used entry. Linear scan is fine:
            // eviction is rare relative to simulation work, and the map
            // is bounded by `capacity`.
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k)
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, (text, self.clock));
    }

    /// Drops the memory tier (disk entries survive) — test hook for
    /// exercising the disk path.
    pub fn clear_memory(&mut self) {
        self.entries.clear();
    }
}

/// Where the server keeps its disk cache when the operator does not
/// choose: `<system temp dir>/lva-serve-cache`.
#[must_use]
pub fn default_cache_dir() -> PathBuf {
    std::env::temp_dir().join("lva-serve-cache")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn record_text(name: &str) -> String {
        let mut record = RunRecord::new(name);
        record.push_stat("summary/norm_mpki", 1.25);
        record.to_string_pretty()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "lva-serve-cache-test-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_tier_hits_and_evicts_lru() {
        let mut cache = ResultCache::in_memory(2);
        assert!(cache.is_empty());
        cache.put(1, record_text("one"));
        cache.put(2, record_text("two"));
        // Touch 1 so 2 is the LRU victim.
        assert!(cache.get(1).is_some());
        cache.put(3, record_text("three"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2).is_none(), "LRU entry evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn get_refreshes_the_logical_clock_stamp() {
        let mut cache = ResultCache::in_memory(4);
        cache.put(1, record_text("one"));
        cache.put(2, record_text("two"));
        let stamped = |cache: &ResultCache, key: u64| cache.entries[&key].1;
        let before = stamped(&cache, 1);
        assert!(
            before < stamped(&cache, 2),
            "later put must carry a later stamp"
        );

        // A hit must advance the entry's stamp past every other entry's,
        // and past its own previous value — `get` is a use, not a peek.
        assert!(cache.get(1).is_some());
        let after = stamped(&cache, 1);
        assert!(after > before, "hit must refresh the stamp");
        assert!(after > stamped(&cache, 2), "hit entry becomes most recent");

        // A miss still ticks the clock but stamps nothing.
        assert!(cache.get(99).is_none());
        assert_eq!(stamped(&cache, 1), after, "miss must not touch stamps");
    }

    #[test]
    fn eviction_removes_least_recently_used_not_oldest_inserted() {
        let mut cache = ResultCache::in_memory(3);
        cache.put(1, record_text("one"));
        cache.put(2, record_text("two"));
        cache.put(3, record_text("three"));
        // Recency order is now 1 < 2 < 3. Touch the two oldest *inserts*
        // so the FIFO victim (1) and the LRU victim (2) diverge.
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        // LRU order: 2 < 1 < 3.
        cache.put(4, record_text("four"));
        assert_eq!(cache.len(), 3);
        assert!(
            cache.get(2).is_none(),
            "victim must be the least recently used"
        );
        assert!(cache.get(1).is_some(), "oldest insert survives if touched");
        assert!(cache.get(3).is_some());
        assert!(cache.get(4).is_some());

        // Re-putting an existing key must not evict anyone: the cache is
        // exactly at capacity and the key is already resident.
        cache.put(3, record_text("three-v2"));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.get(3).unwrap(), record_text("three-v2"));
        assert!(cache.get(1).is_some());
        assert!(cache.get(4).is_some());
    }

    #[test]
    fn disk_tier_survives_reopen() {
        let dir = temp_dir("reopen");
        let key = 0xfeed_beef_dead_cafe;
        {
            let mut cache = ResultCache::open(&dir, 4).unwrap();
            cache.put(key, record_text("persisted"));
        }
        let mut cache = ResultCache::open(&dir, 4).unwrap();
        assert!(cache.is_empty(), "memory tier starts cold");
        let text = cache.get(key).expect("disk hit");
        assert_eq!(text, record_text("persisted"));
        assert_eq!(cache.len(), 1, "disk hit promoted to memory");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_staging_files_are_cleaned_on_open() {
        let dir = temp_dir("staging");
        std::fs::create_dir_all(&dir).unwrap();
        // Simulate a write interrupted between stage and rename: the
        // staging file exists, the final name does not.
        let stale = dir.join(".lva-00000000000000aa.json.tmp.12345");
        std::fs::write(&stale, "{ \"trunca").unwrap();
        let unrelated = dir.join("notes.txt");
        std::fs::write(&unrelated, "keep me").unwrap();

        let mut cache = ResultCache::open(&dir, 4).unwrap();
        assert!(!stale.exists(), "stale staging file swept");
        assert!(unrelated.exists(), "unrelated files untouched");
        assert!(cache.get(0xaa).is_none(), "staging file is not an entry");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_fall_back_to_recompute() {
        let dir = temp_dir("corrupt");
        let key = 0x0123_4567_89ab_cdef;
        let mut cache = ResultCache::open(&dir, 4).unwrap();
        cache.put(key, record_text("good"));
        let path = cache.entry_path(key).unwrap();

        // An external actor truncates the entry mid-file.
        std::fs::write(&path, &record_text("good")[..20]).unwrap();
        cache.clear_memory();
        assert!(cache.get(key).is_none(), "corrupt entry reads as a miss");
        assert!(!path.exists(), "corrupt entry deleted");

        // The recompute-and-put path heals the entry.
        cache.put(key, record_text("good"));
        cache.clear_memory();
        assert_eq!(cache.get(key).unwrap(), record_text("good"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_paths_are_content_addressed() {
        let dir = temp_dir("paths");
        let cache = ResultCache::open(&dir, 1).unwrap();
        let path = cache.entry_path(0xab).unwrap();
        assert_eq!(
            path.file_name().unwrap().to_str().unwrap(),
            "lva-00000000000000ab.json"
        );
        assert!(ResultCache::in_memory(1).entry_path(0xab).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
