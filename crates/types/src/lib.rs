//! Core types shared by every crate in the skycube workspace: fixed-point
//! [`Value`]s, dimension bitmasks ([`DimMask`]), row-major [`Dataset`]s with
//! the paper's dominance/coincidence primitives, and the [`SkylineGroup`]
//! output vocabulary.
//!
//! See the workspace `DESIGN.md` for how these map onto the ICDE 2007 paper
//! *Computing Compressed Multidimensional Skyline Cubes Efficiently*.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod binding;
mod columnar;
mod dataset;
mod dims;
mod error;
mod group;
mod hash;
mod row_table;
mod section;
mod value;

pub use binding::Binding;
pub use columnar::{ColumnView, ColumnarWindow};
pub use dataset::{running_example, Dataset, DomRelation, ObjId};
pub use dims::{DimIter, DimMask, SubsetIter, MAX_DIMS};
pub use error::{Error, Result};
pub use group::{normalize_groups, SkylineGroup};
pub use hash::{FastHash, FastHasher};
pub use section::{
    checksum, AlignedBytes, DirectoryEntry, Pod, Section, SectionError, SectionStore,
    SectionWriter, Span, SECTION_ALIGN,
};
pub use value::{truncate4, Order, Value, SCALE_4};
