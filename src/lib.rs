//! Umbrella crate re-exporting the CANDLE reproduction workspace.
pub use candle;
pub use cluster;
pub use collectives;
pub use datacache;
pub use dataio;
pub use datapipe;
pub use dlframe;
pub use experiments;
pub use fleet;
pub use hpo;
pub use obs;
pub use perfmodel;
pub use resil;
pub use serve;
pub use tensor;
pub use xrng;
