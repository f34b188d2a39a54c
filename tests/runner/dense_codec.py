"""The dense array encoding that schema "2" run directories and caches hold.

Kept verbatim as the reference the compressed codec
(:func:`repro.serialize.array_to_jsonable`) is measured and tested against:
the decoded arrays must be identical, and old entries must read as misses.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np


def dense_array_to_jsonable(arr: Optional[np.ndarray]) -> Optional[Dict[str, Any]]:
    """Encode an ndarray as ``{"dtype", "shape", "data"}`` (None passes through)."""
    if arr is None:
        return None
    arr = np.asarray(arr)
    return {
        "dtype": str(arr.dtype),
        "shape": list(arr.shape),
        "data": arr.ravel().tolist(),
    }


def dense_array_from_jsonable(payload: Optional[Dict[str, Any]]) -> Optional[np.ndarray]:
    """Decode :func:`dense_array_to_jsonable` output back into an ndarray."""
    if payload is None:
        return None
    return np.array(payload["data"], dtype=np.dtype(payload["dtype"])).reshape(
        payload["shape"]
    )
