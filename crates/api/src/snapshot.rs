//! Content-addressed snapshot storage with a manifest chain.
//!
//! A checkpoint of the simulated world is a set of named *sections* (one per
//! component: orchestrator, RAN, transport, …), each serialized to canonical
//! JSON bytes. [`SnapshotStore`] keeps every section as an object addressed
//! by its SHA-256 — identical state stored once, however many epochs repeat
//! it, which is what makes per-epoch checkpointing of a slowly-changing
//! world affordable — and records one [`SnapshotManifest`] per checkpoint
//! epoch mapping section names to object hashes. Manifests form a chain
//! (each carries the root hash of its parent), so two runs that should agree
//! can be compared hash-by-hash without deserializing anything:
//! [`replay_bisect`] binary-searches the epoch range for the first diverging
//! manifest and names the components whose hashes moved.
//!
//! The SHA-256 implementation is local (FIPS 180-4, ~60 lines) because the
//! workspace deliberately takes no new dependencies; it is tested against
//! the standard vectors below.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const ROUND_CONSTANTS: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 digest of `bytes` (FIPS 180-4).
pub fn sha256(bytes: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Full blocks are compressed where they lie; only the tail is copied,
    // into a buffer that holds the padding: 0x80, zeros, and the 64-bit
    // big-endian bit length closing the last block.
    let mut blocks = bytes.chunks_exact(64);
    for block in &mut blocks {
        compress(&mut h, block);
    }
    let tail = blocks.remainder();
    let mut last = [0u8; 128];
    last[..tail.len()].copy_from_slice(tail);
    last[tail.len()] = 0x80;
    let padded = if tail.len() < 56 { 64 } else { 128 };
    let bit_len = (bytes.len() as u64).wrapping_mul(8);
    last[padded - 8..padded].copy_from_slice(&bit_len.to_be_bytes());
    for block in last[..padded].chunks_exact(64) {
        compress(&mut h, block);
    }
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Fold one 64-byte block into the running hash state.
fn compress(h: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = *h;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = hh
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(ROUND_CONSTANTS[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        hh = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
        *slot = slot.wrapping_add(v);
    }
}

/// Lowercase hex SHA-256 of `bytes` — the object address.
pub fn sha256_hex(bytes: &[u8]) -> String {
    const NIBBLES: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(64);
    for b in sha256(bytes) {
        s.push(NIBBLES[usize::from(b >> 4)] as char);
        s.push(NIBBLES[usize::from(b & 0x0f)] as char);
    }
    s
}

/// Pointer to one stored section: content hash plus size.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SectionRef {
    /// Hex SHA-256 of the section's serialized bytes.
    pub hash: String,
    /// Serialized size in bytes.
    pub bytes: u64,
}

/// One checkpoint: an epoch, a link to the previous checkpoint, and the
/// content hash of every component section.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotManifest {
    /// Monitoring epoch the world was checkpointed at.
    pub epoch: u64,
    /// Root hash of the parent manifest, or `None` for the chain head.
    pub parent: Option<String>,
    /// Component name → stored section, in stable (sorted) order.
    pub sections: BTreeMap<String, SectionRef>,
}

impl SnapshotManifest {
    /// The manifest's identity: SHA-256 over a canonical rendering of
    /// (epoch, parent, every section's name/hash/size). Two manifests share
    /// a root hash iff they describe byte-identical worlds with the same
    /// history link.
    pub fn root_hash(&self) -> String {
        let mut canon = format!("epoch:{}\n", self.epoch);
        canon.push_str(&format!(
            "parent:{}\n",
            self.parent.as_deref().unwrap_or("-")
        ));
        for (name, section) in &self.sections {
            canon.push_str(&format!("{name}:{}:{}\n", section.hash, section.bytes));
        }
        sha256_hex(canon.as_bytes())
    }
}

/// Errors from snapshot storage.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(io::Error),
    /// What is stored is not a snapshot this build can read: bytes that do
    /// not hash to their address, an address that is not one, a manifest
    /// that breaks the parent chain, a section or field that is absent.
    Corrupt(String),
    /// (De)serialization failure.
    Codec(serde_json::Error),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::Corrupt(m) => write!(f, "snapshot corrupt: {m}"),
            SnapshotError::Codec(e) => write!(f, "snapshot codec: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<serde_json::Error> for SnapshotError {
    fn from(e: serde_json::Error) -> Self {
        SnapshotError::Codec(e)
    }
}

/// On-disk layout: `objects/<2-hex>/<62-hex>` content-addressed blobs plus
/// `manifests/epoch-<20-digit>.json`, one per checkpoint.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    root: PathBuf,
}

impl SnapshotStore {
    /// Open (creating directories as needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Result<SnapshotStore, SnapshotError> {
        let root = root.into();
        fs::create_dir_all(root.join("objects"))?;
        fs::create_dir_all(root.join("manifests"))?;
        Ok(SnapshotStore { root })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Where the object addressed `hash` lives. An address is read from
    /// manifest files, so it is checked before it becomes a path: anything
    /// but 64 lowercase hex digits is refused.
    fn object_path(&self, hash: &str) -> Result<PathBuf, SnapshotError> {
        if hash.len() != 64 || !is_lower_hex(hash) {
            return Err(SnapshotError::Corrupt(format!(
                "{hash:?} is not an object address"
            )));
        }
        Ok(self.root.join("objects").join(&hash[..2]).join(&hash[2..]))
    }

    /// Store `bytes`, returning its address. Writing the same content twice
    /// is free: the object already exists under its hash.
    pub fn put_object(&self, bytes: &[u8]) -> Result<SectionRef, SnapshotError> {
        let hash = sha256_hex(bytes);
        let path = self.object_path(&hash)?;
        if !path.exists() {
            fs::create_dir_all(path.parent().expect("object path has a shard dir"))?;
            write_then_rename(&path, bytes)?;
        }
        Ok(SectionRef {
            hash,
            bytes: bytes.len() as u64,
        })
    }

    /// Fetch the object at `hash`, verifying its content address.
    pub fn get_object(&self, hash: &str) -> Result<Vec<u8>, SnapshotError> {
        let bytes = fs::read(self.object_path(hash)?)?;
        let actual = sha256_hex(&bytes);
        if actual != hash {
            return Err(SnapshotError::Corrupt(format!(
                "object {hash} hashes to {actual}"
            )));
        }
        Ok(bytes)
    }

    /// True when an object is already stored at `hash`.
    pub fn contains(&self, hash: &str) -> bool {
        self.object_path(hash).is_ok_and(|path| path.exists())
    }

    fn manifest_path(&self, epoch: u64) -> PathBuf {
        self.root
            .join("manifests")
            .join(format!("epoch-{epoch:020}.json"))
    }

    /// Record the checkpoint manifest for its epoch.
    ///
    /// Enforces the chain: if the store already holds manifests, the new
    /// manifest's `parent` must be the latest one's root hash, and its epoch
    /// must be strictly later.
    pub fn append_manifest(&self, manifest: &SnapshotManifest) -> Result<(), SnapshotError> {
        self.append_onto(self.latest_manifest()?.as_ref(), manifest)
    }

    /// Chain a checkpoint of `sections` at `epoch` onto the series tip and
    /// return its manifest. The tip is read once, for the parent link and
    /// for the chain check both.
    pub fn append_checkpoint(
        &self,
        epoch: u64,
        sections: BTreeMap<String, SectionRef>,
    ) -> Result<SnapshotManifest, SnapshotError> {
        let tip = self.latest_manifest()?;
        let manifest = SnapshotManifest {
            epoch,
            parent: tip.as_ref().map(SnapshotManifest::root_hash),
            sections,
        };
        self.append_onto(tip.as_ref(), &manifest)?;
        Ok(manifest)
    }

    /// Write `manifest`, after checking that it extends the chain at `tip`.
    fn append_onto(
        &self,
        tip: Option<&SnapshotManifest>,
        manifest: &SnapshotManifest,
    ) -> Result<(), SnapshotError> {
        if let Some(last) = tip {
            if manifest.epoch <= last.epoch {
                return Err(SnapshotError::Corrupt(format!(
                    "manifest epoch {} not after chain tip {}",
                    manifest.epoch, last.epoch
                )));
            }
            let tip_hash = last.root_hash();
            if manifest.parent.as_deref() != Some(tip_hash.as_str()) {
                return Err(SnapshotError::Corrupt(format!(
                    "manifest at epoch {} does not chain to tip {tip_hash}",
                    manifest.epoch
                )));
            }
        }
        write_then_rename(
            &self.manifest_path(manifest.epoch),
            &serde_json::to_vec_pretty(manifest)?,
        )
    }

    /// Checkpointed epochs, ascending.
    pub fn epochs(&self) -> Result<Vec<u64>, SnapshotError> {
        let mut epochs = Vec::new();
        for entry in fs::read_dir(self.root.join("manifests"))? {
            let name = entry?.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("epoch-")
                .and_then(|s| s.strip_suffix(".json"))
            {
                if let Ok(epoch) = num.parse::<u64>() {
                    epochs.push(epoch);
                }
            }
        }
        epochs.sort_unstable();
        Ok(epochs)
    }

    /// Load the manifest checkpointed at `epoch`.
    pub fn load_manifest(&self, epoch: u64) -> Result<SnapshotManifest, SnapshotError> {
        let bytes = fs::read(self.manifest_path(epoch))?;
        Ok(serde_json::from_slice(&bytes)?)
    }

    /// The most recent manifest, if any checkpoint exists.
    pub fn latest_manifest(&self) -> Result<Option<SnapshotManifest>, SnapshotError> {
        match self.epochs()?.last() {
            Some(&epoch) => Ok(Some(self.load_manifest(epoch)?)),
            None => Ok(None),
        }
    }

    /// Total bytes of stored objects (deduplicated on-disk footprint).
    pub fn object_bytes(&self) -> Result<u64, SnapshotError> {
        let mut total = 0;
        self.for_each_object(|object| {
            total += object.metadata()?.len();
            Ok(())
        })?;
        Ok(total)
    }

    /// Number of distinct stored objects.
    pub fn object_count(&self) -> Result<u64, SnapshotError> {
        let mut count = 0;
        self.for_each_object(|_| {
            count += 1;
            Ok(())
        })?;
        Ok(count)
    }

    /// Visit every stored object: the files whose shard and name spell an
    /// address. What a crashed writer left behind under a temporary name is
    /// not an object.
    fn for_each_object(
        &self,
        mut visit: impl FnMut(&fs::DirEntry) -> io::Result<()>,
    ) -> Result<(), SnapshotError> {
        for shard in fs::read_dir(self.root.join("objects"))? {
            let shard = shard?;
            let prefix = shard.file_name();
            if !shard.file_type()?.is_dir() || prefix.len() != 2 || !is_lower_hex(&prefix) {
                continue;
            }
            for object in fs::read_dir(shard.path())? {
                let object = object?;
                let rest = object.file_name();
                if rest.len() == 62 && is_lower_hex(&rest) {
                    visit(&object)?;
                }
            }
        }
        Ok(())
    }
}

/// True when `text` is made of lowercase hex digits only.
fn is_lower_hex(text: impl AsRef<std::ffi::OsStr>) -> bool {
    text.as_ref()
        .as_encoded_bytes()
        .iter()
        .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
}

/// Write `bytes` beside `path` and rename them into place, so a crashed
/// writer never leaves a torn file at a final address. The temporary name is
/// this writer's own (process id plus a process-wide counter): two writers
/// of one target — clones of a store, worker threads storing byte-identical
/// sections — each rename their own file, and the target holds one of them.
fn write_then_rename(path: &Path, bytes: &[u8]) -> Result<(), SnapshotError> {
    static NEXT_WRITE: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp-{}-{}",
        std::process::id(),
        NEXT_WRITE.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Where and how two manifest chains first disagree.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Divergence {
    /// First common checkpoint epoch whose manifests differ.
    pub epoch: u64,
    /// Sections whose hashes differ at that epoch (or exist on one side
    /// only), sorted — the components to blame.
    pub components: Vec<String>,
    /// Manifests actually compared: the binary search's probe count, which
    /// the self-test asserts is O(log n), not a linear scan.
    pub probes: u64,
}

/// Find the first checkpoint where two runs that should agree do not.
///
/// Both stores must checkpoint the same epochs (the common subset is
/// compared). Divergence is persistent — once two deterministic runs split,
/// every later checkpoint differs — so "manifest differs at epoch e" is
/// monotone in e and binary search finds the first split in O(log n)
/// manifest loads. Returns `None` when every common checkpoint agrees.
pub fn replay_bisect(
    a: &SnapshotStore,
    b: &SnapshotStore,
) -> Result<Option<Divergence>, SnapshotError> {
    let epochs_a = a.epochs()?;
    let epochs_b: std::collections::BTreeSet<u64> = b.epochs()?.into_iter().collect();
    let common: Vec<u64> = epochs_a
        .into_iter()
        .filter(|e| epochs_b.contains(e))
        .collect();
    if common.is_empty() {
        return Ok(None);
    }
    let mut probes = 0u64;
    let mut differs = |epoch: u64| -> Result<bool, SnapshotError> {
        probes += 1;
        Ok(a.load_manifest(epoch)?.root_hash() != b.load_manifest(epoch)?.root_hash())
    };
    // No divergence at the tip means none anywhere (persistence).
    if !differs(*common.last().expect("non-empty"))? {
        return Ok(None);
    }
    // Invariant: common[hi] differs; everything before common[lo] agrees.
    let mut lo = 0usize;
    let mut hi = common.len() - 1;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if differs(common[mid])? {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let epoch = common[lo];
    let ma = a.load_manifest(epoch)?;
    let mb = b.load_manifest(epoch)?;
    let mut components: Vec<String> = ma
        .sections
        .iter()
        .filter(|(name, section)| mb.sections.get(*name) != Some(section))
        .map(|(name, _)| name.clone())
        .collect();
    for name in mb.sections.keys() {
        if !ma.sections.contains_key(name) {
            components.push(name.clone());
        }
    }
    components.sort_unstable();
    components.dedup();
    Ok(Some(Divergence {
        epoch,
        components,
        probes,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::Deref;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A snapshot store in a fresh temp directory, removed when dropped.
    struct Scratch(SnapshotStore);

    impl Deref for Scratch {
        type Target = SnapshotStore;
        fn deref(&self) -> &SnapshotStore {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(self.0.root());
        }
    }

    fn scratch(tag: &str) -> Scratch {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ovnes-snapshot-{}-{tag}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        Scratch(SnapshotStore::open(dir).unwrap())
    }

    fn manifest(
        epoch: u64,
        parent: Option<&SnapshotManifest>,
        payload: &[(&str, &str)],
    ) -> SnapshotManifest {
        SnapshotManifest {
            epoch,
            parent: parent.map(SnapshotManifest::root_hash),
            sections: payload
                .iter()
                .map(|(name, content)| {
                    (
                        name.to_string(),
                        SectionRef {
                            hash: sha256_hex(content.as_bytes()),
                            bytes: content.len() as u64,
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn sha256_standard_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // Padding edges: the tail leaves room for the length (55), does not
        // (56, 63), is empty (64), and the same one full block later.
        for (n, expect) in [
            (
                55usize,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
            (
                119,
                "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb",
            ),
            (
                120,
                "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c",
            ),
            // FIPS 180-4: one million repetitions of 'a'.
            (
                1_000_000,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ] {
            assert_eq!(sha256_hex(&vec![b'a'; n]), expect, "{n} bytes of 'a'");
        }
    }

    #[test]
    fn objects_round_trip_and_deduplicate() {
        let store = scratch("objects");
        let a = store.put_object(b"hello world").unwrap();
        let again = store.put_object(b"hello world").unwrap();
        let b = store.put_object(b"other").unwrap();
        assert_eq!(a, again, "same content, same address");
        assert_ne!(a.hash, b.hash);
        assert_eq!(store.object_count().unwrap(), 2, "dedup stores once");
        assert_eq!(store.get_object(&a.hash).unwrap(), b"hello world");
        assert!(store.contains(&a.hash));
        assert!(!store.contains(&sha256_hex(b"absent")));
        assert_eq!(
            store.object_bytes().unwrap(),
            ("hello world".len() + "other".len()) as u64
        );
    }

    #[test]
    fn corrupted_object_is_detected() {
        let store = scratch("corrupt");
        let section = store.put_object(b"precious state").unwrap();
        let path = store.object_path(&section.hash).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.get_object(&section.hash),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn concurrent_puts_of_identical_content_all_succeed() {
        let store = scratch("concurrent");
        let payloads: [&[u8]; 4] = [b"config", b"topology", b"quiet controller", b"rng"];
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for writer in 0..8usize {
                // Clones of one store, as two checkpointing handles would be.
                let (store, start) = (store.clone(), &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..200 {
                        let payload = payloads[(writer + i) % payloads.len()];
                        let stored = store.put_object(payload).unwrap_or_else(|e| {
                            panic!("writer {writer}, put {i}: {e}");
                        });
                        assert_eq!(stored.hash, sha256_hex(payload));
                    }
                });
            }
        });
        assert_eq!(store.object_count().unwrap(), 4);
        for payload in payloads {
            assert_eq!(store.get_object(&sha256_hex(payload)).unwrap(), payload);
        }
    }

    #[test]
    fn malformed_addresses_are_corrupt_not_a_panic_or_a_path() {
        let store = scratch("addresses");
        let upper = sha256_hex(b"x").to_uppercase();
        let long = format!("{}0", sha256_hex(b"x"));
        for hash in [
            "",
            "zz",
            "../../etc/hostname",
            upper.as_str(),
            long.as_str(),
        ] {
            assert!(
                matches!(store.get_object(hash), Err(SnapshotError::Corrupt(_))),
                "get_object({hash:?})"
            );
            assert!(!store.contains(hash), "contains({hash:?})");
        }
        // The same address, read back from a manifest file.
        let mut hostile = manifest(1, None, &[("ran", "r1")]);
        hostile.sections.get_mut("ran").unwrap().hash = "../../etc/hostname".into();
        store.append_manifest(&hostile).unwrap();
        let loaded = store.load_manifest(1).unwrap();
        assert!(matches!(
            store.get_object(&loaded.sections["ran"].hash),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn leftover_temp_files_are_not_objects() {
        let store = scratch("leftover");
        let stored = store.put_object(b"whole").unwrap();
        let shard = store.object_path(&stored.hash).unwrap();
        let shard = shard.parent().unwrap();
        fs::write(shard.join(format!("{}.tmp-1-0", &stored.hash[2..])), b"to").unwrap();
        fs::write(store.root().join("objects").join("stray"), b"file").unwrap();
        assert_eq!(store.object_count().unwrap(), 1);
        assert_eq!(store.object_bytes().unwrap(), 5);
    }

    #[test]
    fn append_checkpoint_links_to_the_tip_it_read() {
        let store = scratch("checkpoint");
        let sections = |content: &str| manifest(0, None, &[("ran", content)]).sections;
        let m1 = store.append_checkpoint(10, sections("r1")).unwrap();
        assert_eq!(m1.parent, None);
        let m2 = store.append_checkpoint(20, sections("r2")).unwrap();
        assert_eq!(m2.parent, Some(m1.root_hash()));
        assert_eq!(store.latest_manifest().unwrap(), Some(m2));
        // Non-advancing epoch: rejected, and nothing is written.
        assert!(matches!(
            store.append_checkpoint(20, sections("r3")),
            Err(SnapshotError::Corrupt(_))
        ));
        assert_eq!(store.epochs().unwrap(), vec![10, 20]);
    }

    #[test]
    fn manifest_chain_appends_loads_and_guards_linkage() {
        let store = scratch("chain");
        assert!(store.latest_manifest().unwrap().is_none());
        let m1 = manifest(10, None, &[("ran", "r1"), ("transport", "t1")]);
        store.append_manifest(&m1).unwrap();
        let m2 = manifest(20, Some(&m1), &[("ran", "r2"), ("transport", "t1")]);
        store.append_manifest(&m2).unwrap();
        assert_eq!(store.epochs().unwrap(), vec![10, 20]);
        assert_eq!(store.load_manifest(10).unwrap(), m1);
        assert_eq!(store.latest_manifest().unwrap(), Some(m2.clone()));

        // Wrong parent: rejected.
        let orphan = manifest(30, Some(&m1), &[("ran", "r3")]);
        assert!(matches!(
            store.append_manifest(&orphan),
            Err(SnapshotError::Corrupt(_))
        ));
        // Non-advancing epoch: rejected.
        let stale = manifest(20, Some(&m2), &[("ran", "r3")]);
        assert!(matches!(
            store.append_manifest(&stale),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn root_hash_is_sensitive_to_every_field() {
        let base = manifest(5, None, &[("a", "x"), ("b", "y")]);
        let mut other = base.clone();
        other.epoch = 6;
        assert_ne!(base.root_hash(), other.root_hash(), "epoch");
        let mut other = base.clone();
        other.sections.get_mut("a").unwrap().hash = sha256_hex(b"z");
        assert_ne!(base.root_hash(), other.root_hash(), "section hash");
        let mut other = base.clone();
        other.parent = Some(base.root_hash());
        assert_ne!(base.root_hash(), other.root_hash(), "parent");
        assert_eq!(base.root_hash(), base.clone().root_hash(), "deterministic");
    }

    /// Two chains over `epochs`, identical until `split_at`, after which
    /// chain B's `component` section carries different content.
    fn diverging_chains(
        tag: &str,
        epochs: &[u64],
        split_at: u64,
        component: &str,
    ) -> (Scratch, Scratch) {
        let a = scratch(&format!("{tag}-a"));
        let b = scratch(&format!("{tag}-b"));
        let (mut prev_a, mut prev_b): (Option<SnapshotManifest>, Option<SnapshotManifest>) =
            (None, None);
        for &epoch in epochs {
            let shared = format!("shared-{epoch}");
            let ours = format!("state-{epoch}");
            let theirs = if epoch >= split_at {
                format!("state-{epoch}-flipped")
            } else {
                ours.clone()
            };
            let ma = manifest(
                epoch,
                prev_a.as_ref(),
                &[("stable", shared.as_str()), (component, ours.as_str())],
            );
            let mb = manifest(
                epoch,
                prev_b.as_ref(),
                &[("stable", shared.as_str()), (component, theirs.as_str())],
            );
            a.append_manifest(&ma).unwrap();
            b.append_manifest(&mb).unwrap();
            prev_a = Some(ma);
            prev_b = Some(mb);
        }
        (a, b)
    }

    #[test]
    fn bisect_finds_exact_epoch_and_component() {
        let epochs: Vec<u64> = (1..=64).map(|i| i * 10).collect();
        for split in [10u64, 250, 640] {
            let (a, b) = diverging_chains(&format!("split{split}"), &epochs, split, "rng");
            let d = replay_bisect(&a, &b).unwrap().expect("chains diverge");
            assert_eq!(d.epoch, split);
            assert_eq!(d.components, vec!["rng".to_string()]);
            assert!(
                d.probes as usize <= epochs.len().ilog2() as usize + 2,
                "binary search, not a scan: {} probes over {} epochs",
                d.probes,
                epochs.len()
            );
        }
    }

    #[test]
    fn bisect_agreeing_chains_is_none() {
        let epochs: Vec<u64> = (1..=16).collect();
        let (a, b) = diverging_chains("agree", &epochs, u64::MAX, "rng");
        assert_eq!(replay_bisect(&a, &b).unwrap(), None);
        // And disjoint chains have nothing to compare.
        let empty = scratch("empty");
        assert_eq!(replay_bisect(&a, &empty).unwrap(), None);
    }
}
