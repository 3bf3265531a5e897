"""Music-scene recommendation testbed.

Artist catalogs with popularity scores and genre tags, two recommenders
trained on an artist-artist similarity graph (weighted matrix factorization
and an autoencoder), and a simulated-user benchmark that measures ranking
accuracy per popularity range.
"""

from scenerec.catalog import (
    Artist,
    Catalog,
    CatalogError,
    SimilarityGraph,
    UserVector,
    artists_in_range,
    load_catalog,
    popularity_percentiles,
    save_catalog,
    top_popular_in_genre,
)
from scenerec.evaluation import ExperimentConfig, ExperimentReport, Trial, auc, run_experiment, sample_trial
from scenerec.multvae import VaeConfig, VaeModel, train_multvae
from scenerec.synth import FixtureProvider, SynthConfig, generate_catalog, snowball_crawl
from scenerec.wrmf import FactorModel, WrmfConfig, fold_in_user, rank_candidates, train_wrmf

__version__ = "0.1.0"

__all__ = [
    "Artist",
    "Catalog",
    "CatalogError",
    "ExperimentConfig",
    "ExperimentReport",
    "FactorModel",
    "FixtureProvider",
    "SimilarityGraph",
    "SynthConfig",
    "Trial",
    "UserVector",
    "VaeConfig",
    "VaeModel",
    "WrmfConfig",
    "artists_in_range",
    "auc",
    "fold_in_user",
    "generate_catalog",
    "load_catalog",
    "popularity_percentiles",
    "rank_candidates",
    "run_experiment",
    "sample_trial",
    "save_catalog",
    "snowball_crawl",
    "top_popular_in_genre",
    "train_multvae",
    "train_wrmf",
]
