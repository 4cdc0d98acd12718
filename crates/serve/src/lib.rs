//! # siterec-serve
//!
//! The online serving layer of the O²-SiteRec reproduction: load a trained
//! SRCKPT1 checkpoint, precompute the per-period node embeddings into a
//! compact [`EmbeddingStore`] (with an `SREMB1` on-disk image), and serve
//! top-K site recommendations over a hand-rolled thread-per-core HTTP/1.1 +
//! JSONL interface with request batching, an LRU score cache, and graceful
//! degradation (load-shedding 503s, stale-store serving during reload).
//!
//! The determinism contract carries over from training: an identical
//! checkpoint and an identical request yield bit-identical scores, at any
//! worker count, batch size, or cache state, because the server replays the
//! exact scoring-tail tape ops of offline
//! [`siterec_core::O2SiteRec::predict`] over exported constants (see
//! [`EmbeddingStore::score_batch`]).
//!
//! In-process quickstart (the `siterec-serve` binary wraps the same API):
//!
//! ```no_run
//! use siterec_serve::{start, EmbeddingStore, Query, Recipe, ServeConfig};
//!
//! // Rebuild the model from its recipe, adopt the checkpointed weights,
//! // export the embeddings, and serve.
//! let recipe: Recipe = "tiny:7".parse().unwrap();
//! let mut model = recipe.build_model(4);
//! model.restore_latest(std::path::Path::new("ckpts")).unwrap();
//! let store = EmbeddingStore::new(model.export_serving());
//! let handle = start(store, ServeConfig::from_env(), None).unwrap();
//! println!("serving on {}", handle.addr());
//! # handle.shutdown();
//! # handle.join();
//! ```

#![deny(missing_docs)]

pub mod cache;
pub mod client;
pub mod http;
pub mod recipe;
pub mod server;
pub mod store;
pub mod supervise;

pub use cache::ScoreCache;
pub use recipe::{Preset, Recipe};
pub use server::{start, Reloader, ServeConfig, ServeController, ServerHandle};
pub use store::{EmbeddingStore, Query, StoreError};
pub use supervise::SuperviseConfig;
