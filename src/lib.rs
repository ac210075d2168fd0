//! Workspace umbrella crate: re-exports the public API of every member crate
//! so the examples and integration tests in the repository root can use a
//! single import path.

pub use collabsim;
pub use collabsim_cli as cli;
pub use collabsim_netsim as netsim;
pub use collabsim_reputation as reputation;
pub use collabsim_rl as rl;
