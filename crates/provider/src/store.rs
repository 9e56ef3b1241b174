//! Page storage backends.

use std::collections::HashMap;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use blobseer_types::{BlobError, PageId, Result};
use bytes::Bytes;
use parking_lot::RwLock;

use crate::sealed::SealedPage;

/// Backend storing immutable pages addressed by [`PageId`].
///
/// Pages are written once and never mutated (BlobSeer "generates
/// completely new pages when clients request data modifications",
/// paper §1), so implementations only need last-writer-wins semantics
/// on the rare retry path.
///
/// An entry is a [`SealedPage`]: the payload **and** the block sums the
/// client sealed it with travel, are stored and come back together —
/// one lookup, one lock, and nothing to forget across a restart. There
/// is no way to read payload bytes out of a store without the sums
/// that judge them. All byte accounting (`scan`, `stored_bytes`,
/// `delete`'s return value) counts **payload bytes only**.
pub trait PageStore: Send + Sync {
    /// Store a page. Overwrites (identical) content on retries.
    fn store(&self, pid: PageId, page: SealedPage) -> Result<()>;

    /// Fetch a page as stored — unverified; [`crate::DataProvider`]
    /// checks the blocks it is about to return. A copy whose sums
    /// cannot be recovered must come back unverifiable (so the fetch
    /// counts as corrupt), never as an error that reads as "missing".
    fn fetch(&self, pid: PageId) -> Result<SealedPage>;

    /// Verify the stored copy whole where it lives and return only the
    /// verdict: the payload bytes hashed, or `None` for a copy that is
    /// corrupt or unverifiable. A page not stored here errors as in
    /// [`Self::fetch`]. The default fetches and verifies; a store that
    /// can hash its entry in place overrides it to skip handing a copy
    /// out.
    fn verify(&self, pid: PageId) -> Result<Option<u64>> {
        Ok(self.fetch(pid)?.verify())
    }

    /// `true` if the page is stored here.
    fn contains(&self, pid: PageId) -> bool;

    /// Delete a page; returns the payload bytes freed, or `None` when
    /// the page was not stored here. (The garbage-collection hook.)
    fn delete(&self, pid: PageId) -> Result<Option<u64>>;

    /// Enumerate every stored page as `(pid, payload bytes)` pairs —
    /// the provider-side half of the orphan scrubber's sweep. The
    /// snapshot is **weakly consistent** under concurrency: pages
    /// stored or deleted while the scan runs may or may not appear,
    /// which is sufficient for mark-and-sweep (the scrubber's epoch cut
    /// exempts everything stored after its mark began, and deleting an
    /// already-deleted page is a no-op). A store that cannot enumerate
    /// at all (unreadable backing directory) must **error**, not
    /// return an empty list — "nothing stored" and "nothing visible"
    /// are different answers, and the scrubber reports them
    /// differently (clean sweep vs. skipped provider).
    fn scan(&self) -> Result<Vec<(PageId, u64)>>;

    /// Number of pages stored.
    fn page_count(&self) -> usize;

    /// Total payload bytes stored — the measure behind the paper's
    /// storage-efficiency claim (§4.3).
    fn stored_bytes(&self) -> u64;
}

/// The error of a request for a page that is not stored.
fn not_stored(pid: PageId) -> BlobError {
    BlobError::Storage(format!("{pid:?} not stored"))
}

const MEM_SHARDS: usize = 16;

/// Sharded in-memory page store.
pub struct MemoryPageStore {
    shards: Vec<RwLock<HashMap<PageId, SealedPage>>>,
    bytes: AtomicU64,
}

impl MemoryPageStore {
    /// Empty store.
    pub fn new() -> Self {
        MemoryPageStore {
            shards: (0..MEM_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            bytes: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard(&self, pid: PageId) -> &RwLock<HashMap<PageId, SealedPage>> {
        // Low bits of the sequence part spread consecutive pages.
        &self.shards[(pid.raw() as usize) % MEM_SHARDS]
    }
}

impl Default for MemoryPageStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PageStore for MemoryPageStore {
    fn store(&self, pid: PageId, page: SealedPage) -> Result<()> {
        let mut shard = self.shard(pid).write();
        let added = page.len() as u64;
        if let Some(old) = shard.insert(pid, page) {
            self.bytes.fetch_sub(old.len() as u64, Ordering::Relaxed);
        }
        self.bytes.fetch_add(added, Ordering::Relaxed);
        Ok(())
    }

    fn fetch(&self, pid: PageId) -> Result<SealedPage> {
        self.shard(pid).read().get(&pid).cloned().ok_or_else(|| not_stored(pid))
    }

    fn verify(&self, pid: PageId) -> Result<Option<u64>> {
        // Hashed under the shard's read guard: no clone, and stores to
        // the shard wait out one page's verify.
        self.shard(pid).read().get(&pid).map(SealedPage::verify).ok_or_else(|| not_stored(pid))
    }

    fn contains(&self, pid: PageId) -> bool {
        self.shard(pid).read().contains_key(&pid)
    }

    fn delete(&self, pid: PageId) -> Result<Option<u64>> {
        let mut shard = self.shard(pid).write();
        if let Some(old) = shard.remove(&pid) {
            self.bytes.fetch_sub(old.len() as u64, Ordering::Relaxed);
            Ok(Some(old.len() as u64))
        } else {
            Ok(None)
        }
    }

    fn scan(&self) -> Result<Vec<(PageId, u64)>> {
        // Shard by shard under the shared guard: writers to other
        // shards proceed; the per-shard view is a consistent snapshot.
        let mut out = Vec::with_capacity(self.page_count());
        for shard in &self.shards {
            out.extend(shard.read().iter().map(|(&pid, page)| (pid, page.len() as u64)));
        }
        Ok(out)
    }

    fn page_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    fn stored_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// First bytes of every page file.
const FILE_MAGIC: [u8; 8] = *b"BSPAGE\x00\x01";
/// Magic plus the little-endian `u64` block count.
const FILE_PREFIX: usize = 16;

/// File-backed page store: one file per page under a directory.
///
/// Models a commodity provider persisting pages to local disk. Used by
/// the durability-oriented tests and available to library users; the
/// benches use [`MemoryPageStore`] to keep the measured path CPU-bound.
///
/// # Page file layout
///
/// ```text
/// "BSPAGE\0\1" | block count: u64 LE | count × sum: u64 LE | payload
/// ```
///
/// The sums are the ones the client sealed the page with, so a copy
/// that rots while the process is down is caught by the first fetch
/// after the restart. A file too short for its header, with the wrong
/// magic or with a block count that does not fit the file comes back
/// from [`PageStore::fetch`] unverifiable (hence corrupt, and
/// repairable from a replica) and counts zero payload bytes.
pub struct FilePageStore {
    dir: PathBuf,
    pages: AtomicU64,
    bytes: AtomicU64,
}

/// Split a page file image into its sums and payload offset; `None`
/// for a short or malformed header.
fn parse_page_file(image: &[u8]) -> Option<(Vec<u64>, usize)> {
    let payload_at = header_len(image.get(..FILE_PREFIX)?)?;
    let sums = image
        .get(FILE_PREFIX..payload_at)?
        .chunks_exact(8)
        .map(|sum| u64::from_le_bytes(sum.try_into().expect("an 8-byte chunk")))
        .collect();
    Some((sums, payload_at))
}

/// Length of the whole header (prefix plus sums) that a page file's
/// first [`FILE_PREFIX`] bytes declare, i.e. where the payload starts.
fn header_len(prefix: &[u8]) -> Option<usize> {
    let (magic, count) = prefix.split_at(8);
    if magic != FILE_MAGIC {
        return None;
    }
    let count = usize::try_from(u64::from_le_bytes(count.try_into().ok()?)).ok()?;
    count.checked_mul(8)?.checked_add(FILE_PREFIX)
}

/// Payload bytes of the page file at `path`: its length minus the
/// header length its prefix declares (zero for a malformed file);
/// `None` when there is no such file.
fn payload_len_on_disk(path: &Path) -> Result<Option<u64>> {
    let mut file = match fs::File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let file_len = file.metadata()?.len();
    let mut prefix = [0u8; FILE_PREFIX];
    let payload = match file.read_exact(&mut prefix) {
        Ok(()) => header_len(&prefix).and_then(|header| file_len.checked_sub(header as u64)),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => None,
        Err(e) => return Err(e.into()),
    };
    Ok(Some(payload.unwrap_or(0)))
}

impl FilePageStore {
    /// Open (creating if needed) a store rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let store = FilePageStore { dir, pages: AtomicU64::new(0), bytes: AtomicU64::new(0) };
        // Recover counters from a pre-existing directory.
        for (_, payload) in store.scan()? {
            store.pages.fetch_add(1, Ordering::Relaxed);
            store.bytes.fetch_add(payload, Ordering::Relaxed);
        }
        Ok(store)
    }

    fn path_of(&self, pid: PageId) -> PathBuf {
        self.dir.join(format!("{:032x}.page", pid.raw()))
    }

    /// Inverse of [`FilePageStore::path_of`]: the pid encoded in a page
    /// file name, or `None` for foreign files in the directory.
    fn pid_of(name: &str) -> Option<PageId> {
        let hex = name.strip_suffix(".page")?;
        if hex.len() != 32 {
            return None;
        }
        u128::from_str_radix(hex, 16).ok().map(PageId)
    }
}

impl PageStore for FilePageStore {
    fn store(&self, pid: PageId, page: SealedPage) -> Result<()> {
        let path = self.path_of(pid);
        let old_len = payload_len_on_disk(&path)?;
        let sums = page.sums();
        let mut header = Vec::with_capacity(FILE_PREFIX + sums.len() * 8);
        header.extend_from_slice(&FILE_MAGIC);
        header.extend_from_slice(&(sums.len() as u64).to_le_bytes());
        for sum in sums {
            header.extend_from_slice(&sum.to_le_bytes());
        }
        let mut file = fs::File::create(&path)?;
        file.write_all(&header)?;
        file.write_all(&page)?;
        match old_len {
            Some(old) => {
                self.bytes.fetch_sub(old, Ordering::Relaxed);
            }
            None => {
                self.pages.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.bytes.fetch_add(page.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn fetch(&self, pid: PageId) -> Result<SealedPage> {
        let image = match fs::read(self.path_of(pid)) {
            Ok(image) => Bytes::from(image),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(not_stored(pid)),
            Err(e) => return Err(e.into()),
        };
        Ok(match parse_page_file(&image) {
            Some((sums, payload_at)) => SealedPage::from_parts(image.slice(payload_at..), &sums),
            None => SealedPage::unverifiable(image),
        })
    }

    fn contains(&self, pid: PageId) -> bool {
        self.path_of(pid).exists()
    }

    fn delete(&self, pid: PageId) -> Result<Option<u64>> {
        let path = self.path_of(pid);
        let Some(payload) = payload_len_on_disk(&path)? else { return Ok(None) };
        fs::remove_file(&path)?;
        self.pages.fetch_sub(1, Ordering::Relaxed);
        self.bytes.fetch_sub(payload, Ordering::Relaxed);
        Ok(Some(payload))
    }

    fn scan(&self) -> Result<Vec<(PageId, u64)>> {
        // Directory listing. Foreign files — and files racing a
        // concurrent delete, which vanish mid-walk — are skipped (weak
        // consistency is all sweep needs), but an unreadable directory
        // is a hard error: an empty answer would make the scrubber
        // report a clean sweep over pages it never saw.
        let mut out = Vec::with_capacity(self.page_count());
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let Some(pid) = entry.file_name().to_str().and_then(Self::pid_of) else {
                continue;
            };
            if let Ok(Some(payload)) = payload_len_on_disk(&entry.path()) {
                out.push((pid, payload));
            }
        }
        Ok(out)
    }

    fn page_count(&self) -> usize {
        self.pages.load(Ordering::Relaxed) as usize
    }

    fn stored_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sealed::SUM_BLOCK;

    fn pid(n: u128) -> PageId {
        PageId(n)
    }

    fn sealed(bytes: &'static [u8]) -> SealedPage {
        SealedPage::seal(Bytes::from_static(bytes))
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("blobseer-fps-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn exercise_store(store: &dyn PageStore) {
        assert_eq!(store.page_count(), 0);
        store.store(pid(1), sealed(b"hello world!")).unwrap();
        store.store(pid(2), sealed(b"abcd")).unwrap();
        assert_eq!(store.page_count(), 2);
        assert_eq!(store.stored_bytes(), 16);
        let page = store.fetch(pid(1)).unwrap();
        assert_eq!(&page[..], b"hello world!");
        assert_eq!(page.sums(), sealed(b"hello world!").sums(), "sums come back as sealed");
        assert_eq!(page.verify(), Some(12));
        // The in-place verdict, and a typed miss for a page not stored.
        assert_eq!(store.verify(pid(1)).unwrap(), Some(12));
        assert!(matches!(store.verify(pid(3)), Err(BlobError::Storage(_))));
        let mut scanned = store.scan().unwrap();
        scanned.sort_unstable();
        assert_eq!(scanned, vec![(pid(1), 12), (pid(2), 4)]);
        assert!(store.contains(pid(2)));
        assert!(!store.contains(pid(3)));
        assert!(store.fetch(pid(3)).is_err());
        // Overwrite adjusts byte accounting.
        store.store(pid(2), sealed(b"xy")).unwrap();
        assert_eq!(store.stored_bytes(), 14);
        assert_eq!(store.page_count(), 2);
        // A multi-block page round-trips with every sum; only payload
        // bytes are ever counted.
        let big = Bytes::from(vec![0x5Au8; 2 * SUM_BLOCK + 9]);
        store.store(pid(4), SealedPage::seal(big.clone())).unwrap();
        let back = store.fetch(pid(4)).unwrap();
        assert_eq!((back.sums().len(), back.verify()), (3, Some(big.len() as u64)));
        assert_eq!(store.stored_bytes(), 14 + big.len() as u64);
        assert_eq!(store.delete(pid(4)).unwrap(), Some(big.len() as u64));
        // Delete.
        assert_eq!(store.delete(pid(2)).unwrap(), Some(2));
        assert_eq!(store.delete(pid(2)).unwrap(), None);
        assert_eq!(store.page_count(), 1);
        assert_eq!(store.stored_bytes(), 12);
        assert_eq!(store.scan().unwrap(), vec![(pid(1), 12)]);
    }

    #[test]
    fn memory_store_contract() {
        exercise_store(&MemoryPageStore::new());
    }

    #[test]
    fn file_store_contract() {
        let dir = temp_dir("contract");
        exercise_store(&FilePageStore::open(&dir).unwrap());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_store_keeps_the_callers_allocation() {
        let store = MemoryPageStore::new();
        let data = Bytes::from(vec![3u8; 64]);
        store.store(pid(1), SealedPage::seal(data.clone())).unwrap();
        assert_eq!(store.fetch(pid(1)).unwrap().data().as_ptr(), data.as_ptr());
    }

    #[test]
    fn file_store_recovers_counters_as_payload_bytes() {
        let dir = temp_dir("rec");
        {
            let s = FilePageStore::open(&dir).unwrap();
            s.store(pid(9), sealed(b"persist")).unwrap();
            s.store(pid(10), SealedPage::seal(Bytes::from(vec![1u8; SUM_BLOCK + 1]))).unwrap();
        }
        let s2 = FilePageStore::open(&dir).unwrap();
        assert_eq!(s2.page_count(), 2);
        assert_eq!(s2.stored_bytes(), 7 + SUM_BLOCK as u64 + 1);
        let page = s2.fetch(pid(9)).unwrap();
        assert_eq!(&page[..], b"persist");
        assert_eq!(page.verify(), Some(7));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_with_a_short_or_malformed_header_is_unverifiable() {
        let dir = temp_dir("hdr");
        let s = FilePageStore::open(&dir).unwrap();
        s.store(pid(1), sealed(b"intact")).unwrap();
        let path = s.path_of(pid(1));
        let image = fs::read(&path).unwrap();
        assert_eq!(image.len(), FILE_PREFIX + 8 + 6);

        let mut wrong_magic = image.clone();
        wrong_magic[0] ^= 1;
        let mut huge_count = image.clone();
        huge_count[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        let mut wrong_count = image.clone();
        wrong_count[8..16].copy_from_slice(&0u64.to_le_bytes());
        for (what, damaged) in [
            ("truncated prefix", &image[..5]),
            ("truncated sums", &image[..FILE_PREFIX + 3]),
            ("wrong magic", &wrong_magic[..]),
            ("count beyond the file", &huge_count[..]),
            ("count that does not fit the payload", &wrong_count[..]),
        ] {
            // Damage while down: the reopened store still lists the
            // page (so repair can replace it) but can never verify it.
            fs::write(&path, damaged).unwrap();
            let reopened = FilePageStore::open(&dir).unwrap();
            assert_eq!(reopened.fetch(pid(1)).unwrap().verify(), None, "{what}");
            assert_eq!(reopened.verify(pid(1)).unwrap(), None, "{what}: corrupt, not missing");
            assert!(reopened.contains(pid(1)) && reopened.page_count() == 1, "{what}");
            // A store over the damaged file replaces it, accounting intact.
            reopened.store(pid(1), sealed(b"intact")).unwrap();
            assert_eq!(reopened.fetch(pid(1)).unwrap().verify(), Some(6), "{what}");
            assert_eq!((reopened.page_count(), reopened.stored_bytes()), (1, 6), "{what}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotted_payloads_verify_as_corrupt_in_both_stores() {
        let data = Bytes::from(vec![0x5Au8; 2 * SUM_BLOCK + 9]);
        let mut rotted = data.to_vec();
        *rotted.last_mut().unwrap() ^= 0x40;
        let memory = MemoryPageStore::new();
        memory.store(pid(1), SealedPage::seal(data.clone())).unwrap();
        memory.store(pid(2), SealedPage::seal(data.clone()).with_payload(rotted.into())).unwrap();
        assert_eq!(memory.verify(pid(1)).unwrap(), Some(data.len() as u64));
        assert_eq!(memory.verify(pid(2)).unwrap(), None);

        // The file store's medium flips the file's last byte, which is
        // payload whatever the header holds.
        let dir = temp_dir("rot");
        let file = FilePageStore::open(&dir).unwrap();
        file.store(pid(1), SealedPage::seal(data.clone())).unwrap();
        assert_eq!(file.verify(pid(1)).unwrap(), Some(data.len() as u64));
        let mut image = fs::read(file.path_of(pid(1))).unwrap();
        *image.last_mut().unwrap() ^= 0x40;
        fs::write(file.path_of(pid(1)), &image).unwrap();
        assert_eq!(file.verify(pid(1)).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_store_concurrent_writers() {
        let store = std::sync::Arc::new(MemoryPageStore::new());
        let mut handles = Vec::new();
        for t in 0..8u128 {
            let s = std::sync::Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..500u128 {
                    let id = pid(t * 1000 + i);
                    let page = SealedPage::seal(Bytes::from(vec![t as u8; 64]));
                    s.store(id, page).unwrap();
                    assert_eq!(s.fetch(id).unwrap().len(), 64);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.page_count(), 4000);
        assert_eq!(store.stored_bytes(), 4000 * 64);
    }
}
