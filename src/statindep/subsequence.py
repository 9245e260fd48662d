"""Increasing checkpoint sequences along which selective limits are taken."""

from __future__ import annotations

import operator
from typing import Iterable, Iterator

import numpy as np

from .errors import CheckpointError


def _check_index(value, name: str) -> int:
    """``operator.index(value)``, or a TypeError naming ``name`` when
    ``value`` is not an integer (a float with an integral value
    included)."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def check_checkpoints(checkpoints: Iterable[int]) -> np.ndarray:
    """The checkpoints as an int64 array (an int64 array itself, not a
    copy), or CheckpointError unless they form a nonempty 1-d run of
    strictly increasing naturals below 2^63.  TypeError for an array of a
    dtype that is not an integer one, or for an element of any other
    iterable that is not an integer."""
    items = checkpoints if isinstance(checkpoints, np.ndarray) \
        else list(checkpoints)
    arr = np.asarray(items)
    if arr.ndim != 1 or arr.size == 0:
        raise CheckpointError("checkpoint list must be a nonempty 1-d sequence")
    if arr.dtype.kind not in "iu":
        if items is checkpoints:
            raise TypeError(f"checkpoints must have an integer dtype, got "
                            f"{arr.dtype}")
        arr = [_check_index(k, f"checkpoints[{i}]")
               for i, k in enumerate(items)]
    top = max(arr) if isinstance(arr, list) else arr.max()
    if top >= 2 ** 63:
        raise CheckpointError(f"checkpoints must be < 2^63, got {top}")
    arr = np.asarray(arr).astype(np.int64, copy=False)
    if arr[0] < 1:
        raise CheckpointError(f"checkpoints must start at 1 or later, got {arr[0]}")
    if not np.all(arr[1:] > arr[:-1]):
        raise CheckpointError("checkpoints must be strictly increasing")
    return arr


class SubsequenceIndex:
    """A finite materialization of strictly increasing naturals k_1 < k_2 < ...

    Selective densities and distribution functions are evaluated only at
    these checkpoints.  ``rule`` is an optional human-readable closed form
    ("squares", "block ends", ...); ``name`` is a short label used when a
    family of indexes appears in one report.
    """

    def __init__(self, checkpoints: Iterable[int], rule: str | None = None,
                 name: str | None = None):
        arr = check_checkpoints(checkpoints)
        arr.setflags(write=False)
        self.checkpoints = arr
        self.rule = rule
        self.name = name

    def __len__(self) -> int:
        return int(self.checkpoints.size)

    def __iter__(self) -> Iterator[int]:
        return iter(int(k) for k in self.checkpoints)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubsequenceIndex):
            return NotImplemented
        return (self.checkpoints.shape == other.checkpoints.shape
                and bool(np.all(self.checkpoints == other.checkpoints)))

    def __repr__(self) -> str:
        tag = self.name or self.rule or "explicit"
        return f"SubsequenceIndex({tag}, M={len(self)}, deepest={self.deepest})"

    @property
    def deepest(self) -> int:
        return int(self.checkpoints[-1])

    @property
    def label(self) -> str:
        return self.name or self.rule or f"kappa[M={len(self)}]"

    def take(self, indices: np.ndarray) -> "SubsequenceIndex":
        """Sub-index keeping the given positions (must be sorted)."""
        return SubsequenceIndex(self.checkpoints[indices], rule=self.rule,
                                name=self.name)

    def to_json_obj(self) -> dict:
        obj: dict = {"checkpoints": [int(k) for k in self.checkpoints]}
        if self.rule is not None:
            obj["rule"] = self.rule
        if self.name is not None:
            obj["name"] = self.name
        return obj
