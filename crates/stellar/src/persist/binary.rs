//! The zero-copy binary format: the on-disk layout *is* the in-memory
//! layout of [`CubeIndex`]'s section-backed columns, so loading a cube is a
//! structural validation pass over one aligned buffer — no deserialization,
//! no index rebuild, and the first query runs against borrowed views into
//! the file bytes.
//!
//! Layout (all integers native-endian; the header's endian probe rejects a
//! file written on the other kind of machine rather than byte-swapping):
//!
//! ```text
//! offset  size  field
//! 0       8     magic "SKYBIN01"
//! 8       4     format version (currently 2; 1 is still read)
//! 12      4     endian probe 0x0102_0304
//! 16      4     dims
//! 20      4     num_sections
//! 24      8     num_objects
//! 32      8     num_groups
//! 40      8     FNV-1a checksum of the directory block
//! 48      32*n  directory: (id u32, elem_size u32, offset u64,
//!                           byte_len u64, checksum u64) per section
//! 48+32n  ...   payload block, 8-byte aligned sections
//! ```
//!
//! The payload block starts 8-byte aligned because the header (48 bytes)
//! and each directory entry (32 bytes) are multiples of [`SECTION_ALIGN`].
//! Section ids live in [`crate::index::section_id`]; ids are never reused,
//! and any layout change bumps `VERSION` rather than repurposing an id.
//!
//! Version 2 dropped five sections of version 1: the per-dimension posting
//! lists (ids 7 and 8) and the popcount buckets (ids 12–14). A version-1
//! file still loads. Its retired sections are checksum-verified like every
//! other section, and nothing reads them.

use crate::cube::CompressedSkylineCube;
use crate::index::{corrupt, section_id, CubeIndex};
use skycube_types::{
    checksum, AlignedBytes, DirectoryEntry, ObjId, Result, Section, SectionStore, SectionWriter,
};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// File magic. Shares no prefix with the text header (`#skycube`) and
/// differs from it in many byte positions, so no single bit flip can turn
/// one format's header into the other's.
pub const MAGIC: [u8; 8] = *b"SKYBIN01";

/// Current format version.
pub const VERSION: u32 = 2;

/// The oldest format version this build reads: version 1 differs only by
/// five sections the loader ignores, so a checkpoint written before the
/// upgrade still recovers.
const OLDEST_READABLE: u32 = 1;

/// Written natively, compared on load: a mismatch means the file came from
/// a machine with the other byte order and must be rejected, not decoded.
const ENDIAN_PROBE: u32 = 0x0102_0304;

/// Fixed header size in bytes.
const HEADER_LEN: usize = 48;

/// Directory entry size in bytes.
const ENTRY_LEN: usize = 32;

/// True if `bytes` begin with the binary magic. Used by the auto-detecting
/// load paths in [`super`] to dispatch between formats.
pub(super) fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

/// Serialize `cube` (groups, seeds, and its fully-built serving index) to a
/// writer in the binary format. Forces index construction first: the whole
/// point of the format is that the index ships with the cube.
pub fn write_cube_binary<W: Write>(cube: &CompressedSkylineCube, w: W) -> Result<()> {
    let ix = cube.index();
    let mut sw = SectionWriter::new();
    let seeds: Section<ObjId> = cube.seeds().to_vec().into();
    sw.push(section_id::SEEDS, &seeds);
    ix.write_sections(&mut sw);

    let entries = sw.entries();
    let mut dir = Vec::with_capacity(entries.len() * ENTRY_LEN);
    for e in entries {
        dir.extend_from_slice(&e.id.to_ne_bytes());
        dir.extend_from_slice(&e.elem_size.to_ne_bytes());
        dir.extend_from_slice(&e.offset.to_ne_bytes());
        dir.extend_from_slice(&e.byte_len.to_ne_bytes());
        dir.extend_from_slice(&e.checksum.to_ne_bytes());
    }

    let mut out = std::io::BufWriter::new(w);
    out.write_all(&MAGIC)?;
    out.write_all(&VERSION.to_ne_bytes())?;
    out.write_all(&ENDIAN_PROBE.to_ne_bytes())?;
    out.write_all(&(cube.dims() as u32).to_ne_bytes())?;
    out.write_all(&(entries.len() as u32).to_ne_bytes())?;
    out.write_all(&(cube.num_objects() as u64).to_ne_bytes())?;
    out.write_all(&(ix.num_groups() as u64).to_ne_bytes())?;
    out.write_all(&checksum(&dir).to_ne_bytes())?;
    out.write_all(&dir)?;
    out.write_all(sw.payload())?;
    out.flush()?;
    Ok(())
}

/// Serialize `cube` to a file in the binary format.
pub fn save_cube_binary<P: AsRef<Path>>(cube: &CompressedSkylineCube, path: P) -> Result<()> {
    write_cube_binary(cube, std::fs::File::create(path)?)
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_ne_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_ne_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Deserialize a cube from binary bytes.
///
/// This is a *validation* pass, not a parse: the header and directory are
/// checked (magic, version, endianness, per-section bounds / alignment /
/// checksums), every structural invariant of the index is verified by
/// [`CubeIndex::from_store`], and the resulting cube's columns are borrowed
/// views into one shared copy of `bytes`. Any defect maps to a structured
/// [`skycube_types::Error::Corrupt`] naming the offending section — never a
/// panic, and never a silent rebuild.
pub fn read_cube_binary(bytes: &[u8]) -> Result<CompressedSkylineCube> {
    read_cube_binary_buf(Arc::new(AlignedBytes::copy_from(bytes)))
}

/// [`read_cube_binary`] over an already-aligned buffer the caller owns —
/// the sections borrow from `buf` directly, so a load that reads the file
/// straight into an [`AlignedBytes`] never copies the payload again.
pub(super) fn read_cube_binary_buf(buf: Arc<AlignedBytes>) -> Result<CompressedSkylineCube> {
    let bytes = buf.bytes();
    if bytes.len() < HEADER_LEN {
        return Err(corrupt(format!(
            "binary cube truncated: {} bytes, header needs {HEADER_LEN}",
            bytes.len()
        )));
    }
    if !is_binary(bytes) {
        return Err(corrupt("bad magic: not a binary skycube file"));
    }
    let version = read_u32(bytes, 8);
    if !(OLDEST_READABLE..=VERSION).contains(&version) {
        return Err(corrupt(format!(
            "unsupported binary format version {version} (this build reads versions \
             {OLDEST_READABLE} to {VERSION})"
        )));
    }
    if read_u32(bytes, 12) != ENDIAN_PROBE {
        return Err(corrupt(
            "endianness mismatch: file was written on a machine with the other byte order",
        ));
    }
    let dims = read_u32(bytes, 16) as usize;
    let num_sections = read_u32(bytes, 20) as usize;
    let num_objects = read_u64(bytes, 24);
    let num_groups = read_u64(bytes, 32);
    let dir_checksum = read_u64(bytes, 40);
    if num_objects > u64::from(u32::MAX) || num_groups > u64::from(u32::MAX) {
        return Err(corrupt(format!(
            "implausible header counts: objects={num_objects} groups={num_groups}"
        )));
    }
    let (num_objects, num_groups) = (num_objects as usize, num_groups as usize);

    let dir_end = HEADER_LEN.saturating_add(num_sections.saturating_mul(ENTRY_LEN));
    if dir_end > bytes.len() {
        return Err(corrupt(format!(
            "binary cube truncated: directory of {num_sections} sections needs {dir_end} bytes, \
             file has {}",
            bytes.len()
        )));
    }
    let dir = &bytes[HEADER_LEN..dir_end];
    let actual = checksum(dir);
    if actual != dir_checksum {
        return Err(corrupt(format!(
            "directory checksum mismatch: header says {dir_checksum:#018x}, payload hashes to \
             {actual:#018x}"
        )));
    }
    let mut entries = Vec::with_capacity(num_sections);
    for i in 0..num_sections {
        let at = i * ENTRY_LEN;
        entries.push(DirectoryEntry {
            id: read_u32(dir, at),
            elem_size: read_u32(dir, at + 4),
            offset: read_u64(dir, at + 8),
            byte_len: read_u64(dir, at + 16),
            checksum: read_u64(dir, at + 24),
        });
    }

    // Every section borrows from the one shared aligned buffer. Entry
    // offsets are relative to the payload block at `dir_end`, which is
    // 8-aligned by construction (48 + 32*n).
    let store = SectionStore::new(Arc::clone(&buf), dir_end, entries)
        .map_err(|(id, e)| corrupt(format!("section {}: {e}", section_id::name(id))))?;

    let seeds: Section<ObjId> = store
        .section(section_id::SEEDS)
        .map_err(|(id, e)| corrupt(format!("section {}: {e}", section_id::name(id))))?;
    for (i, pair) in seeds.windows(2).enumerate() {
        if pair[0] >= pair[1] {
            return Err(corrupt(format!(
                "seeds not strictly ascending at position {}",
                i + 1
            )));
        }
    }
    if let Some(&last) = seeds.last() {
        if last as usize >= num_objects {
            return Err(corrupt(format!(
                "seed id {last} out of range (objects={num_objects})"
            )));
        }
    }

    let index = CubeIndex::from_store(&store, dims, num_objects, num_groups)?;
    Ok(CompressedSkylineCube::from_loaded_index(
        seeds.to_vec(),
        index,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_cube;
    use skycube_types::{running_example, DimMask, Error};

    fn example_bytes() -> Vec<u8> {
        let cube = compute_cube(&running_example());
        let mut buf = Vec::new();
        write_cube_binary(&cube, &mut buf).unwrap();
        buf
    }

    #[test]
    fn roundtrip_running_example() {
        let ds = running_example();
        let cube = compute_cube(&ds);
        let back = read_cube_binary(&example_bytes()).unwrap();
        assert!(back.is_loaded());
        assert!(back.index().is_loaded());
        assert_eq!(back.dims(), cube.dims());
        assert_eq!(back.num_objects(), cube.num_objects());
        assert_eq!(back.seeds(), cube.seeds());
        assert_eq!(back.num_groups(), cube.num_groups());
        for space in ds.full_space().subsets() {
            assert_eq!(back.subspace_skyline(space), cube.subspace_skyline(space));
        }
        for o in 0..ds.len() as ObjId {
            assert_eq!(back.membership_count(o), cube.membership_count(o));
        }
    }

    #[test]
    fn loaded_groups_match_built_groups() {
        let cube = compute_cube(&running_example());
        let back = read_cube_binary(&example_bytes()).unwrap();
        assert_eq!(
            skycube_types::normalize_groups(back.groups().to_vec()),
            skycube_types::normalize_groups(cube.groups().to_vec())
        );
    }

    #[test]
    fn rejects_bad_magic_version_and_endianness() {
        let good = example_bytes();

        let mut bad = good.clone();
        bad[0] ^= 0x40;
        assert!(matches!(read_cube_binary(&bad), Err(Error::Corrupt { .. })));

        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&99u32.to_ne_bytes());
        match read_cube_binary(&bad) {
            Err(Error::Corrupt { what, .. }) => assert!(what.contains("version")),
            other => panic!("expected Corrupt, got {other:?}"),
        }

        let mut bad = good;
        bad[12..16].copy_from_slice(&0x0403_0201u32.to_ne_bytes());
        match read_cube_binary(&bad) {
            Err(Error::Corrupt { what, .. }) => assert!(what.contains("endianness")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncation_at_every_prefix_length() {
        let good = example_bytes();
        for len in 0..good.len() {
            match read_cube_binary(&good[..len]) {
                Err(Error::Corrupt { .. }) => {}
                Ok(_) => panic!("accepted a {len}-byte prefix of a {}-byte file", good.len()),
                Err(other) => panic!("expected Corrupt at prefix {len}, got {other:?}"),
            }
        }
    }

    #[test]
    fn rejects_payload_corruption_via_checksums() {
        let good = example_bytes();
        // Flip one bit somewhere in the payload block; the per-section
        // checksum (or a downstream structural check) must catch it.
        let payload_start = good.len() - 16;
        let mut bad = good;
        bad[payload_start] ^= 0x01;
        assert!(matches!(read_cube_binary(&bad), Err(Error::Corrupt { .. })));
    }

    #[test]
    fn rejects_directory_tampering() {
        let good = example_bytes();
        // Corrupt a directory byte: the directory checksum must catch it.
        let mut bad = good;
        bad[HEADER_LEN + 3] ^= 0x80;
        match read_cube_binary(&bad) {
            Err(Error::Corrupt { what, .. }) => assert!(what.contains("directory")),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn text_file_is_not_binary() {
        let cube = compute_cube(&running_example());
        let mut buf = Vec::new();
        crate::persist::write_cube(&cube, &mut buf).unwrap();
        assert!(!is_binary(&buf));
        assert!(read_cube_binary(&buf).is_err());
    }

    #[test]
    fn maintenance_works_after_load() {
        // Appending an object to a loaded cube must keep answers coherent
        // (the sparse object tables need no slot for a memberless object,
        // so every section keeps serving zero-copy).
        let back = read_cube_binary(&example_bytes()).unwrap();
        let mut patched = back;
        let groups_before = patched.num_groups();
        patched.append_object();
        assert_eq!(patched.num_objects(), 6);
        assert_eq!(patched.num_groups(), groups_before);
        for space in DimMask::full(4).subsets() {
            let _ = patched.subspace_skyline(space);
        }
    }
}
