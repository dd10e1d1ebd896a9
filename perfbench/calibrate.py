"""A fixed probe of host speed, independent of cohtrade.

Other tenants share this host's cores, and its speed drifts by up to 1.7x
for seconds at a time.  The benchmark times this kernel next to every
round and scales the round's times by ``NOMINAL_S / measured``, so a
result reads as it would at the nominal speed, and runs taken in slow and
fast periods can be compared.  The kernel has the make-up of cohtrade's
hot path without calling it: a frozen dataclass around an outer product,
partial traces by ``einsum``, l1 sums and a small dict, on three-qubit
arrays.  On the reference host its slowdown follows the three-qubit
ensemble's within about 5% while the host itself swings by 70%.
"""

import time
from dataclasses import dataclass

import numpy as np

ITERATIONS = 40
# Seconds one kernel call takes on the reference host when it is not slowed
# (2-core x86_64, Python 3.11, numpy 2.4).  A constant: changing it rescales
# every time metric.
NOMINAL_S = 0.0011

_rng = np.random.default_rng(12345)
_VEC = _rng.standard_normal(8) + 1j * _rng.standard_normal(8)
_VEC /= np.linalg.norm(_VEC)
# (operand subscripts, output subscripts) of reductions of a 2x2x2 tensor pair
_REDUCTIONS = (
    ([0, 1, 2, 3, 4, 5], [0, 1, 3, 4]),
    ([0, 1, 2, 3, 1, 5], [0, 2, 3, 5]),
    ([0, 1, 2, 0, 4, 5], [1, 2, 4, 5]),
    ([0, 1, 2, 3, 1, 2], [0, 3]),
)


@dataclass(frozen=True)
class _Box:
    dims: tuple
    mat: np.ndarray


def _kernel() -> float:
    acc = 0.0
    for i in range(ITERATIONS):
        v = _VEC * (1.0 + 1e-3 * i)
        box = _Box((2, 2, 2), np.outer(v, v.conj()))
        tensor = box.mat.reshape(box.dims + box.dims)
        for operand, out in _REDUCTIONS:
            reduced = np.einsum(tensor, operand, out)
            d = 2 ** (len(out) // 2)
            off = np.abs(reduced.reshape(d, d))
            np.fill_diagonal(off, 0.0)
            acc += float(off.sum())
        table = {k: k * i for k in range(8)}
        acc += sum(table.values())
    return acc


def measure() -> float:
    """Seconds one kernel call takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def slowdown() -> float:
    """How much slower than nominal the host runs now (1.0 = nominal)."""
    return measure() / NOMINAL_S
