from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from scenerec.catalog import Artist, Catalog
from scenerec.multvae import VaeModel


def build_catalog(specs, similar=None) -> Catalog:
    """specs: iterable of (id, popularity, genres). similar: {id: [ids]}."""
    artists = [Artist(id=i, name=i, popularity=p, genres=tuple(g)) for i, p, g in specs]
    return Catalog.build(artists, similar or {})


def float64_copy(model: VaeModel) -> VaeModel:
    """A float64 copy of a float32 autoencoder, for the checks that need
    float64 (finite differences, tight dense references): the model code
    follows the parameters' dtype."""
    return dataclasses.replace(model, **{name: p.astype(np.float64) for name, p in model.params().items()})


@pytest.fixture
def six_artists() -> Catalog:
    return build_catalog(
        [
            ("a", 80, ["rock"]),
            ("b", 40, ["rock", "jazz"]),
            ("c", 5, ["jazz"]),
            ("d", 50, ["pop"]),
            ("e", 50, ["pop"]),
            ("f", 10, []),
        ],
        similar={"a": ["b"], "b": ["a", "c"], "c": ["b"], "d": ["e"], "e": ["d"]},
    )
