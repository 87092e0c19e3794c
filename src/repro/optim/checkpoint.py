"""Checkpoint/resume of optimizer state.

At production scale one MLE fit is hours of Cholesky factorizations; a
crashed driver must not restart the optimization from scratch.  PSO
periodically serializes its *complete* iteration state (swarm
positions, velocities, bests, and the exact bit-generator state);
``fit_mle`` logs every evaluation's ``(u, value)`` and replays the log
to its deterministic optimizer.  Either way a relaunched fit continues
bit-identically — the round-trip equality the resilience tests pin.

Format: a single JSON document (not ``.npz`` — NumPy's PCG64 state
holds 128-bit integers that only JSON's arbitrary-precision ints
round-trip), written atomically (temp file + ``os.replace``) so a crash
mid-write never corrupts the previous checkpoint.
"""

from __future__ import annotations

import json
import os
from typing import Any

import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "rng_state_to_json",
    "rng_from_json",
]

_FORMAT = "repro-optim-checkpoint"
_VERSION = 1


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def save_checkpoint(path: str, *, kind: str, state: dict) -> None:
    """Atomically write optimizer ``state`` (arrays allowed) to ``path``."""
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "kind": kind,
        "state": _jsonable(state),
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


def load_checkpoint(path: str, *, kind: str) -> dict | None:
    """Load a checkpoint written by :func:`save_checkpoint`.

    Returns ``None`` when ``path`` does not exist (fresh start); raises
    :class:`~repro.exceptions.ConfigurationError` when the file is not a
    checkpoint of the expected ``kind`` — resuming an MLE fit from a
    PSO checkpoint is a configuration mistake, not a fresh start.
    """
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"checkpoint {path!r} is not valid JSON: {exc}"
            ) from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ConfigurationError(f"{path!r} is not an optimizer checkpoint")
    if doc.get("kind") != kind:
        raise ConfigurationError(
            f"checkpoint {path!r} is for {doc.get('kind')!r}, not {kind!r}"
        )
    return doc["state"]


def rng_state_to_json(rng: np.random.Generator) -> dict:
    """The generator's full bit-generator state (JSON-safe)."""
    return _jsonable(rng.bit_generator.state)


def rng_from_json(state: dict) -> np.random.Generator:
    """Reconstruct a generator that continues the saved stream."""
    bit_gen = getattr(np.random, state["bit_generator"])()
    bit_gen.state = state
    return np.random.Generator(bit_gen)
