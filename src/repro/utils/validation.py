"""Input validation helpers shared across the library."""

from __future__ import annotations

import numpy as np


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError`` with *message* when *condition* is false."""
    if not condition:
        raise ValueError(message)


def ensure_array(x, name: str = "array", dtype=None,
                 ndim: int | None = None) -> np.ndarray:
    """Coerce *x* to an ndarray, optionally checking rank and casting dtype."""
    arr = np.asarray(x)
    if dtype is not None:
        arr = arr.astype(dtype, copy=False)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimensions, got {arr.ndim}")
    return arr


def check_bias(bias, channels: int) -> np.ndarray | None:
    """A per-output-channel *bias* as a 1-D array (``None`` passes).

    It must hold exactly *channels* entries: broadcasting would silently
    spread a length-1 bias over every filter.
    """
    if bias is None:
        return None
    bias = ensure_array(bias, "bias", ndim=1)
    if len(bias) != channels:
        raise ValueError(f"bias must have {channels} entries, got {len(bias)}")
    return bias


def add_bias(out: np.ndarray, bias) -> np.ndarray:
    """*out* plus a per-channel *bias* on axis 1 (``None`` adds nothing)."""
    bias = check_bias(bias, out.shape[1])
    if bias is None:
        return out
    return out + bias.reshape((1, -1) + (1,) * (out.ndim - 2))
