//! Workload generation for the skycube workspace: the Börzsönyi synthetic
//! distributions used by the paper's evaluation ([`generate`]), a synthetic
//! stand-in for the paper's NBA statistics table ([`nba_table`]), and CSV
//! persistence.
//!
//! ```
//! use skycube_datagen::{generate, Distribution};
//! let ds = generate(Distribution::AntiCorrelated, 1_000, 4, 42);
//! assert_eq!(ds.len(), 1_000);
//! assert_eq!(ds.dims(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csv;
mod nba;
mod rng;
mod synthetic;

pub use csv::{load_csv, read_csv, save_csv, write_csv};
pub use nba::{nba_table, nba_table_raw, nba_table_sized, NBA_COLUMNS, NBA_DIMS, NBA_PLAYERS};
pub use rng::{normal, normal_clamped, std_normal};
pub use synthetic::{generate, Distribution};
