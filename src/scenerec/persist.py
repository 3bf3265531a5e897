"""Model files: one ``.npz`` holding the model's config as JSON, the hash of
the artist index it was trained on, and its named arrays."""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np


class ModelMismatchError(RuntimeError):
    """A model file does not fit its use: it is not a model file, it is not
    a file of the model kind it is loaded as, or it was trained against a
    different artist index than the catalog it is used with."""


def save_model(path: str | Path, config, index_hash: str, arrays: Mapping[str, np.ndarray]) -> None:
    """Write ``config`` (a dataclass), ``index_hash`` and ``arrays`` to
    exactly ``path``: given an open file, ``np.savez`` adds no ``.npz``."""
    config_json = json.dumps(asdict(config), sort_keys=True)
    with open(path, "wb") as fh:
        np.savez(fh, config_json=np.str_(config_json), index_hash=np.str_(index_hash), **arrays)


def load_model(
    path: str | Path,
    kind: str,
    config_cls,
    shapes: Mapping[str, Sequence[str]],
    expected_index_hash: str | None = None,
):
    """``(config, index_hash, {name: array})`` of a ``kind`` model file.
    ``shapes`` names each array with one label per axis: a label that is a
    config field must equal that field, any other label must take one size
    across the arrays. The kind shows in the array names and in the config
    fitting ``config_cls``; any misfit, an array of another shape, a file
    that is not an ``.npz`` and a hash other than ``expected_index_hash``
    raise ModelMismatchError."""
    names = ("config_json", "index_hash", *shapes)
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError("a single array, not an archive")
        with data:
            arrays = {name: data[name] for name in names if name in data.files}
    except (ValueError, EOFError, zipfile.BadZipFile):
        raise ModelMismatchError(f"{path}: not a model file") from None
    missing = [name for name in names if name not in arrays]
    if missing:
        raise ModelMismatchError(f"{path}: not a {kind} model file (missing {', '.join(missing)})")
    try:
        config = config_cls(**json.loads(str(arrays.pop("config_json"))))
    except (TypeError, ValueError) as exc:
        raise ModelMismatchError(f"{path}: not a {kind} model file ({exc})") from None
    sizes = asdict(config)
    for name, axes in shapes.items():
        shape = arrays[name].shape
        if len(shape) != len(axes) or any(sizes.setdefault(a, n) != n for a, n in zip(axes, shape)):
            expected = ", ".join(f"{a}={sizes[a]}" if a in sizes else a for a in axes)
            raise ModelMismatchError(f"{path}: array {name} has shape {shape}, expected ({expected})")
    index_hash = str(arrays.pop("index_hash"))
    if expected_index_hash is not None and index_hash != expected_index_hash:
        raise ModelMismatchError(f"{path}: model was trained on a different catalog (index hash mismatch)")
    return config, index_hash, arrays
