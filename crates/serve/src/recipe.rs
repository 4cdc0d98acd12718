//! Named training recipes: a deterministic rebuild of the dataset, task and
//! model configuration from one `preset:seed` string.
//!
//! An SRCKPT1 checkpoint stores parameters, not architecture, so the serving
//! process must rebuild the *identical* model (same graphs, same parameter
//! shapes) before adopting the checkpointed weights. A recipe pins every
//! input of that rebuild — simulation config, train split, layer sizes — to
//! the preset name and seed, which is all an operator has to pass on the
//! command line. The `train` and `run` subcommands share the same recipe, so
//! a checkpoint written by one is always loadable by the other.

use siterec_core::{O2SiteRec, SiteRecConfig, Variant};
use siterec_graphs::SiteRecTask;
use siterec_sim::{O2oDataset, SimConfig};
use std::fmt;
use std::str::FromStr;

/// Train split fraction shared by all presets (paper: 80%).
pub const TRAIN_FRAC: f64 = 0.8;

/// Split seed shared by all presets.
pub const SPLIT_SEED: u64 = 9;

/// A recipe preset: the dataset scale and model dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// CI-scale city and model (`SimConfig::tiny`, `d2 = 16`): trains in
    /// seconds, the default for tests and smoke runs.
    Tiny,
    /// Experiment-scale city and the paper's model dimensions
    /// (`SimConfig::experiment`, `d2 = 64`).
    Experiment,
}

/// One fully-specified recipe: preset plus seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recipe {
    /// Scale preset.
    pub preset: Preset,
    /// Training seed (also the checkpoint-compatibility key: a checkpoint
    /// only loads into a model built with the same seed).
    pub seed: u64,
}

impl fmt::Display for Recipe {
    /// Renders back to the parseable `preset:seed` form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.preset {
            Preset::Tiny => "tiny",
            Preset::Experiment => "experiment",
        };
        write!(f, "{name}:{}", self.seed)
    }
}

impl Recipe {
    /// Rebuild the dataset and task this recipe pins.
    pub fn context(&self) -> (O2oDataset, SiteRecTask) {
        let sim = match self.preset {
            // xor keeps the dataset seed distinct from the model seed while
            // remaining a pure function of it. The chaos driver's trainer
            // builds on this and on `config`, so both see the same dataset.
            Preset::Tiny => SimConfig::tiny(self.seed ^ 0x51),
            Preset::Experiment => SimConfig::experiment(self.seed ^ 0x51),
        };
        let data = O2oDataset::generate(sim);
        let task = SiteRecTask::build(&data, TRAIN_FRAC, SPLIT_SEED);
        (data, task)
    }

    /// The model configuration this recipe pins, training for `epochs`.
    pub fn config(&self, epochs: usize) -> SiteRecConfig {
        match self.preset {
            Preset::Tiny => SiteRecConfig {
                d1: 8,
                d2: 16,
                node_heads: 2,
                time_heads: 2,
                layers: 1,
                epochs,
                lr: 1e-2,
                seed: self.seed,
                variant: Variant::Full,
                ..Default::default()
            },
            Preset::Experiment => SiteRecConfig {
                epochs,
                seed: self.seed,
                ..Default::default()
            },
        }
    }

    /// Build the untrained model (dataset + task + config in one step).
    pub fn build_model(&self, epochs: usize) -> O2SiteRec {
        let (data, task) = self.context();
        O2SiteRec::new(&data, &task, self.config(epochs))
    }
}

impl FromStr for Recipe {
    type Err = String;

    /// Parse `preset:seed`, e.g. `tiny:7` or `experiment:42`.
    fn from_str(s: &str) -> Result<Recipe, String> {
        let (name, seed) = s
            .split_once(':')
            .ok_or_else(|| format!("recipe {s:?} is not of the form preset:seed"))?;
        let preset = match name {
            "tiny" => Preset::Tiny,
            "experiment" => Preset::Experiment,
            other => return Err(format!("unknown preset {other:?} (tiny | experiment)")),
        };
        let seed = seed
            .parse::<u64>()
            .map_err(|_| format!("recipe seed {seed:?} is not a u64"))?;
        Ok(Recipe { preset, seed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_rejects() {
        let r: Recipe = "tiny:7".parse().unwrap();
        assert_eq!(r.preset, Preset::Tiny);
        assert_eq!(r.seed, 7);
        assert!("tiny".parse::<Recipe>().is_err());
        assert!("huge:7".parse::<Recipe>().is_err());
        assert!("tiny:x".parse::<Recipe>().is_err());
    }

    #[test]
    fn rebuild_is_deterministic() {
        let r: Recipe = "tiny:7".parse().unwrap();
        let a = r.build_model(2);
        let b = r.build_model(2);
        assert_eq!(a.num_weights(), b.num_weights());
        for (x, y) in a.param_store().iter().zip(b.param_store().iter()) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.value.data(), y.value.data());
        }
    }
}
