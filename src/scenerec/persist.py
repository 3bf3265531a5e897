"""Shared bits for model serialization."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np


class ModelMismatchError(RuntimeError):
    """A model file does not fit its use: it was trained against a different
    artist index than the catalog it is used with, or it is not a file of
    the model kind it is loaded as."""


def check_index_hash(stored: str, expected: str | None, path: str | Path) -> None:
    if expected is not None and stored != expected:
        raise ModelMismatchError(f"{path}: model was trained on a different catalog (index hash mismatch)")


def load_config(data, path: str | Path, kind: str, config_cls, array_names: Sequence[str]):
    """The config stored in an opened ``.npz`` model file, after checking
    that the file holds every array of a ``kind`` model and that the config
    fits ``config_cls``; a file of another kind raises ModelMismatchError."""
    missing = [name for name in ("config_json", "index_hash", *array_names) if name not in data.files]
    if missing:
        raise ModelMismatchError(f"{path}: not a {kind} model file (missing {', '.join(missing)})")
    try:
        return config_cls(**json.loads(scalar_str(data["config_json"])))
    except TypeError as exc:
        raise ModelMismatchError(f"{path}: not a {kind} model file ({exc})") from None


def config_to_json(config) -> str:
    from dataclasses import asdict

    return json.dumps(asdict(config), sort_keys=True)


def scalar_str(npz_value: np.ndarray) -> str:
    return str(npz_value.item() if npz_value.shape == () else npz_value)
