//! Single-space skylines — the substrate both Stellar (the full-space
//! skyline, whose members are the seeds) and the Skyey baseline
//! (per-subspace skylines) are built on.
//!
//! One piece per job, each returning ascending object ids unless noted:
//! - [`skyline`] runs LESS ([`skyline_less`]; Godfrey et al., the paper's
//!   reference \[5\]), the one full-space skyline every engine uses;
//! - [`filter_presorted`] is sort-first skyline's filter pass over an
//!   order the caller keeps topological; LESS and Skyey share it;
//! - [`k_skyband`] answers the daemon's `skyband` verb;
//! - [`skyline_naive`] is the O(n²) correctness oracle.
//!
//! ```
//! use skycube_skyline::{skyline, skyline_naive};
//! use skycube_types::{running_example, DimMask};
//!
//! let ds = running_example();
//! // Full-space skyline of the paper's running example: P2, P4, P5.
//! assert_eq!(skyline(&ds, ds.full_space()), vec![1, 3, 4]);
//! let bd = DimMask::parse("BD").unwrap();
//! assert_eq!(skyline(&ds, bd), skyline_naive(&ds, bd));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod less;
mod naive;
mod sfs;
mod skyband;

pub use less::skyline_less;
pub use naive::skyline_naive;
pub use sfs::filter_presorted;
pub use skyband::k_skyband;

use skycube_types::{Dataset, DimMask, ObjId};

/// Algorithm selector: LESS, or the naive oracle that checks it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Algorithm {
    /// O(n²) pairwise oracle.
    Naive,
    /// Linear elimination sort for skyline (Godfrey et al., VLDB'05).
    #[default]
    Less,
}

impl Algorithm {
    /// Run this algorithm on `ds` restricted to `space`.
    pub fn run(self, ds: &Dataset, space: DimMask) -> Vec<ObjId> {
        match self {
            Algorithm::Naive => skyline_naive(ds, space),
            Algorithm::Less => skyline_less(ds, space),
        }
    }
}

/// Compute the skyline of `space` with the default algorithm (LESS).
pub fn skyline(ds: &Dataset, space: DimMask) -> Vec<ObjId> {
    Algorithm::default().run(ds, space)
}
