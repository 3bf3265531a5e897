from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from scenerec.catalog import Artist, Catalog, SimilarityGraph, UserVector
from scenerec.multvae import VaeModel


def build_catalog(specs, similar=None) -> Catalog:
    """specs: iterable of (id, popularity, genres). similar: {id: [ids]}."""
    artists = [Artist(id=i, name=i, popularity=p, genres=tuple(g)) for i, p, g in specs]
    return Catalog.build(artists, similar or {})


def graph_from_rows(rows) -> SimilarityGraph:
    """The graph whose row i lists ``rows[i]``, taken as given: rows are
    neither sorted nor checked, so a test can build an invalid graph."""
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows], dtype=np.int64)))
    indices = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64, count=int(indptr[-1]))
    return SimilarityGraph(indptr, indices)


def graph_from_lists(rows) -> SimilarityGraph:
    """``graph_from_rows`` with each row sorted."""
    return graph_from_rows([sorted(r) for r in rows])


def dense_graph(graph: SimilarityGraph) -> np.ndarray:
    """The graph as a 0/1 float (n, n) matrix, filled row by row from
    ``graph.row``, for small graphs in tests and oracles."""
    dense = np.zeros((graph.n, graph.n))
    for i in range(graph.n):
        dense[i, graph.row(i)] = 1.0
    return dense


def dense_user(user: UserVector) -> np.ndarray:
    """The user's seed indicator as a 0/1 float vector of length ``user.n``."""
    dense = np.zeros(user.n)
    dense[user.indices] = 1.0
    return dense


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
