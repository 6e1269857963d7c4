//! Cube persistence: a line-oriented text format ([`text`]) and a zero-copy
//! binary format ([`binary`]) that ships the serving index inside the file.
//!
//! The load paths here auto-detect the format by magic — [`read_cube`] and
//! [`load_cube`] accept either — so callers (CLI, daemon recovery, benches)
//! never need to know which format a path holds. The save paths stay
//! explicit: [`save_cube`]/[`write_cube`] write text, and
//! [`save_cube_binary`]/[`write_cube_binary`] write binary.

mod binary;
mod text;

pub use binary::{read_cube_binary, save_cube_binary, write_cube_binary};
pub use text::{read_cube_text, write_cube};

use crate::cube::CompressedSkylineCube;
use skycube_types::{AlignedBytes, Result};
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

/// Deserialize a cube from a reader, auto-detecting the format by magic.
pub fn read_cube<R: Read>(r: R) -> Result<CompressedSkylineCube> {
    dispatch(AlignedBytes::read_from(r)?)
}

/// Deserialize a cube from a file, auto-detecting the format by magic.
///
/// The file is read straight into the 8-aligned buffer the binary sections
/// will borrow from (sized from the file metadata), so a binary load costs
/// exactly one pass over the bytes — no intermediate copy.
pub fn load_cube<P: AsRef<Path>>(path: P) -> Result<CompressedSkylineCube> {
    let file = std::fs::File::open(path)?;
    let size = file.metadata().map(|m| m.len() as usize).unwrap_or(0);
    dispatch(AlignedBytes::read_from_with_capacity(file, size)?)
}

fn dispatch(buf: AlignedBytes) -> Result<CompressedSkylineCube> {
    if binary::is_binary(buf.bytes()) {
        binary::read_cube_binary_buf(Arc::new(buf))
    } else {
        read_cube_text(buf.bytes())
    }
}

/// Serialize a cube to a file in the text format.
pub fn save_cube<P: AsRef<Path>>(cube: &CompressedSkylineCube, path: P) -> Result<()> {
    write_cube(cube, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compute_cube;
    use skycube_types::running_example;

    #[test]
    fn read_cube_auto_detects_both_formats() {
        let cube = compute_cube(&running_example());
        let mut text = Vec::new();
        write_cube(&cube, &mut text).unwrap();
        let mut bin = Vec::new();
        write_cube_binary(&cube, &mut bin).unwrap();
        let from_text = read_cube(&text[..]).unwrap();
        let from_bin = read_cube(&bin[..]).unwrap();
        assert!(!from_text.is_loaded());
        assert!(from_bin.is_loaded());
        assert_eq!(from_text.num_groups(), from_bin.num_groups());
        assert_eq!(from_text.seeds(), from_bin.seeds());
    }

    #[test]
    fn load_cube_auto_detects_on_disk() {
        let dir = std::env::temp_dir().join("skycube_persist_autodetect");
        std::fs::create_dir_all(&dir).unwrap();
        let cube = compute_cube(&running_example());
        let tpath = dir.join("cube.txt");
        let bpath = dir.join("cube.bin");
        save_cube(&cube, &tpath).unwrap();
        save_cube_binary(&cube, &bpath).unwrap();
        let t = load_cube(&tpath).unwrap();
        let b = load_cube(&bpath).unwrap();
        assert_eq!(t.num_groups(), b.num_groups());
        assert!(b.is_loaded());
        std::fs::remove_file(tpath).ok();
        std::fs::remove_file(bpath).ok();
    }
}
