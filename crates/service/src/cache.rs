//! The content-addressed bound cache.
//!
//! A co-analysis result is a pure function of *(program image bytes, cell
//! library, operating point, exploration knobs, energy-round budget)* —
//! the scheduling knobs (`threads`, `lanes`) provably do not affect it.
//! [`KeyMaterial`] captures exactly that function input; its FNV-1a hash
//! addresses a capacity-bounded in-memory LRU backed by an on-disk store
//! (one JSON file per key under the cache directory), so daemon restarts
//! are warm.
//!
//! Hash collisions cannot corrupt answers: every entry stores its full
//! key material (the program image included) and a lookup only hits when
//! the material matches byte-for-byte.

use crate::json::Json;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use xbound_core::jsonout::JsonWriter;
use xbound_core::{BoundsReport, ExploreConfig, UlpSystem};
use xbound_msp430::Program;

/// The exact analysis input a cached bound is valid for.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyMaterial {
    /// Canonical program image bytes ([`Program::image_bytes`]).
    pub image: Vec<u8>,
    /// Cell library identifier.
    pub library: String,
    /// Operating clock, hertz.
    pub clock_hz: f64,
    /// [`ExploreConfig::max_segment_cycles`].
    pub max_segment_cycles: u64,
    /// [`ExploreConfig::max_total_cycles`].
    pub max_total_cycles: u64,
    /// [`ExploreConfig::widen_threshold`].
    pub widen_threshold: u32,
    /// [`ExploreConfig::reset_cycles`].
    pub reset_cycles: u32,
    /// Peak-energy value-iteration round budget.
    pub energy_rounds: u64,
}

impl KeyMaterial {
    /// Builds the key for analyzing `program` on `system` with `config`.
    ///
    /// `config.threads` and `config.lanes` are deliberately excluded:
    /// results are bit-identical at any setting, so they must not split
    /// the cache.
    pub fn new(
        system: &UlpSystem,
        program: &Program,
        config: &ExploreConfig,
        energy_rounds: u64,
    ) -> KeyMaterial {
        KeyMaterial::for_corner(
            program,
            system.library().name(),
            system.clock_hz(),
            config,
            energy_rounds,
        )
    }

    /// Builds the key for one operating-point corner, given the corner's
    /// (possibly derated) library name and clock directly. `new`
    /// delegates here, so a sweep corner and a direct single-corner run
    /// of the same operating point produce the same key — their cache
    /// entries compose.
    pub fn for_corner(
        program: &Program,
        library: &str,
        clock_hz: f64,
        config: &ExploreConfig,
        energy_rounds: u64,
    ) -> KeyMaterial {
        KeyMaterial {
            image: program.image_bytes(),
            library: library.to_string(),
            clock_hz,
            max_segment_cycles: config.max_segment_cycles,
            max_total_cycles: config.max_total_cycles,
            widen_threshold: config.widen_threshold,
            reset_cycles: config.reset_cycles,
            energy_rounds,
        }
    }

    /// FNV-1a over the canonical byte serialization of the material.
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        eat(&(self.image.len() as u64).to_le_bytes());
        eat(&self.image);
        eat(self.library.as_bytes());
        eat(&[0]);
        eat(&self.clock_hz.to_bits().to_le_bytes());
        eat(&self.max_segment_cycles.to_le_bytes());
        eat(&self.max_total_cycles.to_le_bytes());
        eat(&u64::from(self.widen_threshold).to_le_bytes());
        eat(&u64::from(self.reset_cycles).to_le_bytes());
        eat(&self.energy_rounds.to_le_bytes());
        h
    }

    /// The 16-hex-digit content address (used as key string and cache
    /// file stem).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash())
    }

    fn image_hex(&self) -> String {
        let mut s = String::with_capacity(self.image.len() * 2);
        for b in &self.image {
            let _ = write!(s, "{b:02x}");
        }
        s
    }

    /// Writes the material as the next value of `w` (for cache files).
    pub fn write(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.field_str("image", &self.image_hex());
        w.field_str("library", &self.library);
        w.field_f64("clock_hz", self.clock_hz);
        w.field_u64("max_segment_cycles", self.max_segment_cycles);
        w.field_u64("max_total_cycles", self.max_total_cycles);
        w.field_u64("widen_threshold", u64::from(self.widen_threshold));
        w.field_u64("reset_cycles", u64::from(self.reset_cycles));
        w.field_u64("energy_rounds", self.energy_rounds);
        w.end_object();
    }

    /// Reads the material back from a cache-file object.
    ///
    /// # Errors
    ///
    /// Names the first missing, mistyped or out-of-range field. The image
    /// must be pairs of hex digits, and `widen_threshold`/`reset_cycles`
    /// must fit in `u32`.
    pub fn from_json(v: &Json) -> Result<KeyMaterial, String> {
        let image_hex = v
            .get("image")
            .and_then(Json::as_str)
            .ok_or("key: missing image")?;
        if image_hex.len() % 2 != 0 {
            return Err("key: odd-length image hex".to_string());
        }
        // Decoded from bytes, so a multi-byte character is a bad digit,
        // never a slice through a character boundary.
        let digit = |b: u8| char::from(b).to_digit(16);
        let image = image_hex
            .as_bytes()
            .chunks(2)
            .map(|pair| Some((digit(pair[0])? << 4 | digit(pair[1])?) as u8))
            .collect::<Option<Vec<u8>>>()
            .ok_or("key: bad image hex")?;
        let str_field = |k: &str| -> Result<String, String> {
            Ok(v.get(k)
                .and_then(Json::as_str)
                .ok_or(format!("key: missing {k}"))?
                .to_string())
        };
        let u64_field = |k: &str| -> Result<u64, String> {
            v.get(k)
                .and_then(Json::as_u64)
                .ok_or(format!("key: missing {k}"))
        };
        let u32_field = |k: &str| -> Result<u32, String> {
            u32::try_from(u64_field(k)?).map_err(|_| format!("key: {k} out of range"))
        };
        Ok(KeyMaterial {
            image,
            library: str_field("library")?,
            clock_hz: v
                .get("clock_hz")
                .and_then(Json::as_f64)
                .ok_or("key: missing clock_hz")?,
            max_segment_cycles: u64_field("max_segment_cycles")?,
            max_total_cycles: u64_field("max_total_cycles")?,
            widen_threshold: u32_field("widen_threshold")?,
            reset_cycles: u32_field("reset_cycles")?,
            energy_rounds: u64_field("energy_rounds")?,
        })
    }
}

/// Parses a [`BoundsReport`] from its canonical JSON object.
///
/// # Errors
///
/// Names the first missing or mistyped field.
pub fn bounds_from_json(v: &Json) -> Result<BoundsReport, String> {
    let f = |k: &str| -> Result<f64, String> {
        v.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("bounds: missing {k}"))
    };
    let u = |k: &str| -> Result<u64, String> {
        v.get(k)
            .and_then(Json::as_u64)
            .ok_or(format!("bounds: missing {k}"))
    };
    Ok(BoundsReport {
        peak_mw: f("peak_mw")?,
        peak_cycle: u("peak_cycle")?,
        npe_j_per_cycle: f("npe_j_per_cycle")?,
        peak_energy_j: f("peak_energy_j")?,
        energy_cycles: u("energy_cycles")?,
        converged: v
            .get("converged")
            .and_then(Json::as_bool)
            .ok_or("bounds: missing converged")?,
        segments: u("segments")?,
        cycles: u("cycles")?,
        forks: u("forks")?,
        merges: u("merges")?,
        widenings: u("widenings")?,
    })
}

/// How a lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheHit {
    /// Found in the in-memory LRU.
    Memory,
    /// Found in the on-disk store (promoted to memory).
    Disk,
}

struct LruEntry {
    material: KeyMaterial,
    report: BoundsReport,
    /// Monotonic recency stamp; the smallest stamp is evicted.
    stamp: u64,
}

struct LruInner {
    map: HashMap<u64, LruEntry>,
    next_stamp: u64,
}

/// The in-memory LRU + on-disk bound store.
pub struct BoundCache {
    inner: Mutex<LruInner>,
    capacity: usize,
    dir: Option<PathBuf>,
    hits_memory: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
}

impl BoundCache {
    /// Creates a cache holding at most `capacity` in-memory entries,
    /// persisted under `dir` when given (`None` = memory-only, used by
    /// unit tests and `--no-disk-cache`).
    pub fn new(capacity: usize, dir: Option<PathBuf>) -> BoundCache {
        BoundCache {
            inner: Mutex::new(LruInner {
                map: HashMap::new(),
                next_stamp: 0,
            }),
            capacity: capacity.max(1),
            dir,
            hits_memory: AtomicU64::new(0),
            hits_disk: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The persistence directory, if any.
    pub fn dir(&self) -> Option<&PathBuf> {
        self.dir.as_ref()
    }

    /// In-memory entry count.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache lock").map.len()
    }

    /// `true` when no entry is held in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `(memory hits, disk hits, misses)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.hits_memory.load(Ordering::Relaxed),
            self.hits_disk.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Looks `key` up in memory, then on disk. Disk hits are promoted
    /// into memory. Returns the report and where it was found.
    pub fn get(&self, key: &KeyMaterial) -> Option<(BoundsReport, CacheHit)> {
        self.lookup(key, true)
    }

    /// [`BoundCache::get`] without counting a miss — the scheduler's
    /// under-lock re-probe, which would otherwise double-count every
    /// fresh analysis's miss.
    pub(crate) fn recheck(&self, key: &KeyMaterial) -> Option<(BoundsReport, CacheHit)> {
        self.lookup(key, false)
    }

    fn lookup(&self, key: &KeyMaterial, count_miss: bool) -> Option<(BoundsReport, CacheHit)> {
        let hash = key.hash();
        {
            let mut inner = self.inner.lock().expect("cache lock");
            let stamp = inner.next_stamp;
            let found = inner.map.get_mut(&hash).and_then(|e| {
                if e.material == *key {
                    e.stamp = stamp;
                    Some(e.report.clone())
                } else {
                    None
                }
            });
            if let Some(report) = found {
                inner.next_stamp += 1;
                drop(inner);
                self.hits_memory.fetch_add(1, Ordering::Relaxed);
                return Some((report, CacheHit::Memory));
            }
        }
        if let Some(report) = self.load_from_disk(key) {
            self.insert_memory(hash, key.clone(), report.clone());
            self.hits_disk.fetch_add(1, Ordering::Relaxed);
            return Some((report, CacheHit::Disk));
        }
        if count_miss {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        None
    }

    /// Stores a freshly computed bound in memory and (best-effort) on
    /// disk. Disk write failures are reported on stderr but never fail
    /// the analysis.
    pub fn put(&self, key: &KeyMaterial, report: &BoundsReport) {
        self.insert_memory(key.hash(), key.clone(), report.clone());
        if let Some(dir) = &self.dir {
            let path = dir.join(format!("{}.json", key.hex()));
            let mut w = JsonWriter::compact();
            w.begin_object();
            w.key("key");
            key.write(&mut w);
            w.key("bounds");
            report.write(&mut w);
            w.end_object();
            let mut doc = w.finish();
            doc.push('\n');
            // Write-then-rename keeps readers (and a crashed daemon's
            // successor) from ever seeing a torn entry; the helper's
            // pid+counter temp names keep two daemons sharing one cache
            // directory from interleaving writes into each other's
            // scratch file before the rename.
            if let Err(e) = xbound_core::outdirs::write_atomic(&path, doc.as_bytes()) {
                xbound_obs::warn!("cache", "write {} failed: {e}", path.display());
            }
        }
    }

    fn insert_memory(&self, hash: u64, material: KeyMaterial, report: BoundsReport) {
        let mut inner = self.inner.lock().expect("cache lock");
        let stamp = inner.next_stamp;
        inner.next_stamp += 1;
        inner.map.insert(
            hash,
            LruEntry {
                material,
                report,
                stamp,
            },
        );
        if inner.map.len() > self.capacity {
            if let Some((&evict, _)) = inner.map.iter().min_by_key(|(_, e)| e.stamp) {
                inner.map.remove(&evict);
            }
        }
    }

    fn load_from_disk(&self, key: &KeyMaterial) -> Option<BoundsReport> {
        let dir = self.dir.as_ref()?;
        let path = dir.join(format!("{}.json", key.hex()));
        let text = std::fs::read_to_string(&path).ok()?;
        let doc = match Json::parse(&text) {
            Ok(d) => d,
            Err(e) => {
                xbound_obs::warn!(
                    "cache",
                    "ignoring corrupt cache entry {}: {e}",
                    path.display()
                );
                return None;
            }
        };
        let stored = doc
            .get("key")
            .and_then(|k| KeyMaterial::from_json(k).ok())?;
        // The hash addressed the file; the material check defeats
        // collisions and stale schema.
        if stored != *key {
            return None;
        }
        doc.get("bounds").and_then(|b| bounds_from_json(b).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn material(tag: u8) -> KeyMaterial {
        KeyMaterial {
            image: vec![tag, 1, 2, 3],
            library: "ulp65".to_string(),
            clock_hz: 1.0e8,
            max_segment_cycles: 200_000,
            max_total_cycles: 5_000_000,
            widen_threshold: 4,
            reset_cycles: 2,
            energy_rounds: 10_000,
        }
    }

    fn report(peak: f64) -> BoundsReport {
        BoundsReport {
            peak_mw: peak,
            peak_cycle: 1,
            npe_j_per_cycle: 2e-13,
            peak_energy_j: 3e-9,
            energy_cycles: 10,
            converged: true,
            segments: 2,
            cycles: 100,
            forks: 1,
            merges: 0,
            widenings: 0,
        }
    }

    #[test]
    fn key_hash_ignores_nothing_it_should_not() {
        let a = material(1);
        let mut b = material(1);
        assert_eq!(a.hash(), b.hash());
        b.energy_rounds = 9_999;
        assert_ne!(a.hash(), b.hash());
        let mut c = material(1);
        c.image[0] = 2;
        assert_ne!(a.hash(), c.hash());
        assert_eq!(a.hex().len(), 16);
    }

    #[test]
    fn key_material_round_trips_through_json() {
        let a = material(7);
        let mut w = JsonWriter::compact();
        a.write(&mut w);
        let parsed = Json::parse(&w.finish()).unwrap();
        assert_eq!(KeyMaterial::from_json(&parsed).unwrap(), a);
    }

    #[test]
    fn bounds_round_trip_through_json() {
        let r = report(1.0 / 3.0);
        let parsed = Json::parse(&r.to_json()).unwrap();
        let back = bounds_from_json(&parsed).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.to_json(), r.to_json());
    }

    #[test]
    fn lru_hits_and_evicts() {
        let cache = BoundCache::new(2, None);
        let (k1, k2, k3) = (material(1), material(2), material(3));
        assert!(cache.get(&k1).is_none());
        cache.put(&k1, &report(1.0));
        cache.put(&k2, &report(2.0));
        assert_eq!(cache.get(&k1).unwrap().1, CacheHit::Memory);
        // k2 is now least recent; inserting k3 evicts it.
        cache.put(&k3, &report(3.0));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&k2).is_none());
        assert_eq!(cache.get(&k1).unwrap().0.peak_mw, 1.0);
        assert_eq!(cache.counters(), (2, 0, 2));
    }

    #[test]
    fn disk_persistence_round_trips() {
        let dir = std::env::temp_dir().join(format!("xbound-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let key = material(9);
        {
            let cache = BoundCache::new(4, Some(dir.clone()));
            cache.put(&key, &report(4.5));
        }
        // A fresh cache (fresh daemon) finds the entry on disk.
        let cache = BoundCache::new(4, Some(dir.clone()));
        let (r, how) = cache.get(&key).expect("disk hit");
        assert_eq!(how, CacheHit::Disk);
        assert_eq!(r, report(4.5));
        // Promoted: the second lookup is a memory hit.
        assert_eq!(cache.get(&key).unwrap().1, CacheHit::Memory);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cache file is outside input: a stored image with a multi-byte
    /// character or a non-hex digit, or a `u32` knob out of range, is a
    /// parse error, so the lookup reads the file as a miss (and never
    /// panics on the connection thread that asked).
    #[test]
    fn crafted_cache_files_read_as_misses() {
        let dir = std::env::temp_dir().join(format!("xbound-cache-craft-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let key = material(4);
        BoundCache::new(4, Some(dir.clone())).put(&key, &report(1.0));
        let path = dir.join(format!("{}.json", key.hex()));
        let stored = std::fs::read_to_string(&path).unwrap();
        let fresh_get = || BoundCache::new(4, Some(dir.clone())).get(&key);
        assert_eq!(fresh_get().map(|(_, hit)| hit), Some(CacheHit::Disk));
        for (field, crafted) in [
            ("\"image\": \"04010203\"", "\"image\": \"0\u{e9}203\""),
            ("\"image\": \"04010203\"", "\"image\": \"+4010203\""),
            (
                "\"widen_threshold\": 4,",
                "\"widen_threshold\": 4294967300,",
            ),
            ("\"reset_cycles\": 2,", "\"reset_cycles\": 4294967298,"),
        ] {
            assert!(stored.contains(field), "{stored}");
            let doc = stored.replace(field, crafted);
            std::fs::write(&path, &doc).unwrap();
            let parsed = Json::parse(&doc).unwrap();
            assert!(
                KeyMaterial::from_json(parsed.get("key").unwrap()).is_err(),
                "{crafted}"
            );
            assert!(fresh_get().is_none(), "{crafted}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_material_is_a_miss() {
        let dir = std::env::temp_dir().join(format!("xbound-cache-col-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let key = material(5);
        let cache = BoundCache::new(4, Some(dir.clone()));
        cache.put(&key, &report(1.0));
        // Forge a collision: a file at `other`'s address whose stored
        // material belongs to `key`.
        let other = material(6);
        let path = dir.join(format!("{}.json", other.hex()));
        let mut w = JsonWriter::compact();
        w.begin_object();
        w.key("key");
        key.write(&mut w);
        w.key("bounds");
        report(9.0).write(&mut w);
        w.end_object();
        std::fs::write(&path, w.finish()).unwrap();
        let fresh = BoundCache::new(4, Some(dir.clone()));
        assert!(fresh.get(&other).is_none(), "colliding entry must miss");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
