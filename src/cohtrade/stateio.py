"""JSON state-file format shared by the library and the CLI.

Schema::

    {"dims": [d1, ..., dn], "kind": "pure" | "density", "data": [[re, im], ...]}

Pure states carry D amplitude pairs; density operators carry D*D matrix
entries in row-major order.  Files that violate any state invariant are
rejected with a diagnostic naming the invariant.
"""

from __future__ import annotations

import json

import numpy as np

from .states import DensityOperator, InvalidStateError, LocalDims, PureState, State, _as_stack


def state_to_dict(state: State) -> dict:
    stack = _as_stack(state)
    data = [[float(z.real), float(z.imag)] for z in stack.reshape(-1)]
    kind = "pure" if stack.ndim == 2 else "density"
    return {"dims": list(state.dims.dims), "kind": kind, "data": data}


def state_from_dict(payload: dict) -> State:
    if not isinstance(payload, dict):
        raise InvalidStateError("state file must hold a JSON object")
    for key in ("dims", "kind", "data"):
        if key not in payload:
            raise InvalidStateError(f"state file is missing the '{key}' field")
    if not isinstance(payload["dims"], list):
        raise InvalidStateError(f"dims must be a JSON list of integers, got {payload['dims']!r}")
    dims = LocalDims(tuple(payload["dims"]))
    kind = payload["kind"]
    if kind not in ("pure", "density"):
        raise InvalidStateError(f"kind must be 'pure' or 'density', got {kind!r}")
    data = payload["data"]
    if not isinstance(data, list):
        raise InvalidStateError(f"data must be a JSON list of [re, im] pairs, got {data!r}")
    expected = dims.total_dim if kind == "pure" else dims.total_dim**2
    if len(data) != expected:
        raise InvalidStateError(
            f"data holds {len(data)} entries, expected {expected} for kind '{kind}'"
        )
    try:
        flat = np.array([complex(re, im) for re, im in data], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: an integer beyond a double
        raise InvalidStateError(f"data entries must be [re, im] pairs: {exc}") from None
    if any(type(re) is bool or type(im) is bool for re, im in data):  # complex() takes them
        raise InvalidStateError("data entries must be numbers, got a JSON boolean")
    if kind == "pure":
        return PureState(dims, flat)
    return DensityOperator(dims, flat.reshape(dims.total_dim, dims.total_dim))


def write_state_file(path, state: State) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(state), fh)
        fh.write("\n")


def read_state_file(path) -> State:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        # ValueError: bad JSON, bytes that are not UTF-8, an integer beyond
        # int's digit limit; RecursionError: nested too deep
        except (ValueError, RecursionError) as exc:
            raise InvalidStateError(f"state file is not valid JSON: {exc}") from None
    return state_from_dict(payload)
