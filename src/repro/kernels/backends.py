"""Executor backends for the lowered prepared-plan replay.

Every prepared plan (:mod:`repro.kernels.plan`) lowers its format to one
form — row-sorted jagged diagonals plus a permutation — so one executor
loop runs every plannable format. That loop has two backends:

* ``"numpy"`` — the vectorized executor in :meth:`SpMVPlan._replay
  <repro.kernels.plan.SpMVPlan._replay>`: one global gather and
  multiply, one slice add per jagged diagonal, and a strictly
  sequential ``np.add.accumulate`` for the few longest rows (the tail).
  Always available.
* ``"jit"`` — :func:`jagged_spmm` below, compiled with Numba when it is
  importable. Numba is **never** a hard dependency: without it the
  function stays plain Python (still bit-identical, used by the test
  suite to pin the loop order) and :func:`resolve_backend` falls back to
  ``"numpy"``.

Bit-identity contract
---------------------
:func:`jagged_spmm` walks the jagged diagonals in order, so every row
takes its products in the lowered order, one at a time, into a ``+0.0``
accumulator — the same floating-point operations in the same order as
the numpy executor (whose tail path is exact for the reasons given in
:mod:`repro.kernels.plan`). No ``fastmath`` is ever enabled —
reassociation would break the contract. ``tests/kernels/test_backends.py``
enforces equality of ``y`` bits and :class:`KernelCounters` across
backends.

Selection
---------
Callers request a backend through
:attr:`repro.exec.policy.ExecutionPolicy.compute_backend`
(``"auto"``/``"numpy"``/``"jit"``); :func:`resolve_backend` maps the
request to a concrete backend. An explicit ``"jit"`` request without an
importable Numba degrades to ``"numpy"`` and emits an
``exec.backend_fallback`` counter instead of raising.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import ValidationError
from ..telemetry import metrics as _metrics

__all__ = [
    "COMPUTE_BACKENDS",
    "EXECUTOR_BACKENDS",
    "jit_available",
    "numba_version",
    "resolve_backend",
    "jagged_spmm",
    "jagged_spmm_py",
]

#: Backends a policy may request.
COMPUTE_BACKENDS = ("auto", "numpy", "jit")

#: Concrete backends a plan can execute with (what "auto" resolves to).
EXECUTOR_BACKENDS = ("numpy", "jit")

# ----------------------------------------------------------------------
# Numba availability (optional import, probed once)
# ----------------------------------------------------------------------
_NUMBA: Optional[object] = None
_NUMBA_PROBED = False


def _load_numba():
    global _NUMBA, _NUMBA_PROBED
    if not _NUMBA_PROBED:
        _NUMBA_PROBED = True
        try:
            import numba  # type: ignore[import-not-found]

            _NUMBA = numba
        except Exception:  # pragma: no cover - import-time environment
            _NUMBA = None
    return _NUMBA


def jit_available() -> bool:
    """Whether the Numba-compiled executor backend can be used."""
    return _load_numba() is not None


def numba_version() -> Optional[str]:
    """The importable Numba's version string, or ``None``."""
    numba = _load_numba()
    return getattr(numba, "__version__", None) if numba is not None else None


def resolve_backend(
    requested: str, format_name: Optional[str] = None
) -> str:
    """Map a policy's ``compute_backend`` request to a concrete backend.

    ``"auto"`` resolves to ``"jit"`` when Numba is importable, else
    ``"numpy"``. An explicit ``"jit"`` that cannot be honoured falls back
    to ``"numpy"`` and records an ``exec.backend_fallback`` counter
    (labelled with ``format_name``) — never an exception, so a policy
    written for a Numba-equipped host runs unchanged everywhere.
    """
    if requested not in COMPUTE_BACKENDS:
        raise ValidationError(
            f"compute_backend must be one of {COMPUTE_BACKENDS}, "
            f"got {requested!r}"
        )
    if requested == "numpy":
        return "numpy"
    if jit_available():
        return "jit"
    if requested == "jit":
        _metrics.record_backend_fallback(format_name or "*", "numba-missing")
    return "numpy"


# ----------------------------------------------------------------------
# The executor loop. The plain Python definition pins the floating-point
# operation order and is what Numba-free hosts (and the bit-identity
# tests) run; it is compiled in place with numba.njit when importable.
# ----------------------------------------------------------------------
def jagged_spmm_py(off, tail, cols, vals, X, acc):
    """``acc[s, j] += vals[e] * X[cols[e], j]`` over one lowered part.

    ``acc`` is ``(rows, k)`` and starts at 0. Tail row ``r`` takes entries
    ``tail[r]:tail[r+1]``; diagonal ``d`` spans entries ``off[d]:off[d+1]``
    and feeds the sorted rows after the ``t = tail.size - 1`` tail rows.
    """
    k = X.shape[1]
    t = tail.shape[0] - 1
    for d in range(off.shape[0] - 1):
        first = off[d]
        for s in range(off[d + 1] - first):
            c = cols[first + s]
            v = vals[first + s]
            for j in range(k):
                acc[t + s, j] += v * X[c, j]
    for r in range(t):
        for e in range(tail[r], tail[r + 1]):
            c = cols[e]
            v = vals[e]
            for j in range(k):
                acc[r, j] += v * X[c, j]


def _compile(fn: Callable) -> Callable:
    """``numba.njit`` without fastmath (bit-identity), or the plain fn."""
    numba = _load_numba()
    if numba is None:
        return fn
    return numba.njit(cache=False, fastmath=False)(fn)


#: The executor loop the ``"jit"`` backend calls: compiled when Numba is
#: importable, else the interpreted :func:`jagged_spmm_py` itself.
jagged_spmm = _compile(jagged_spmm_py)
