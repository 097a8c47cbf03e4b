"""Dense complex linear algebra for small density matrices.

Everything here operates on plain complex ndarrays (row-major, square).
Matrices never exceed a few thousand rows at desk scale, so clarity and
robust validation win over asymptotics.  `states.negativity_scan` does
not build these matrices: its symmetry blocks w_m c c^T are Hermitian and
positive semidefinite by construction, so it checks only their trace,
against TRACE_TOL.  The negativity of the full matrix, its test oracle,
lives with the other oracles in `tests/oracles.py`.  `DensityMatrix` has
no caller in the package; it stays here because the benchmark's tracer
imports this module and counts `DensityMatrix` constructions.
"""

from __future__ import annotations

import numpy as np

from .states import TRACE_TOL

__all__ = [
    "DensityMatrix",
]


def _as_square_complex(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


class DensityMatrix:
    """A validated density operator, optionally carrying an A|B bipartition.

    Validation enforces Hermiticity, unit trace and positivity (up to a
    small negative eigenvalue tolerance; loss-channel constructions are
    analytic, so only rounding noise is expected below zero).
    """

    def __init__(self, matrix, bipartition: tuple[int, int] | None = None, *,
                 hermiticity_tol: float = 1e-10, trace_tol: float = TRACE_TOL,
                 positivity_tol: float = 1e-9):
        m = _as_square_complex(matrix)
        if np.max(np.abs(m - m.conj().T)) > hermiticity_tol:
            raise ValueError("density matrix is not Hermitian within tolerance")
        tr = np.trace(m)
        if abs(tr - 1.0) > trace_tol:
            raise ValueError(f"density matrix trace {tr} is not 1 within tolerance")
        evals = np.linalg.eigvalsh(m)
        # at least eigvalsh rounding noise (8 ulps of the trace) below 0 is
        # allowed, so a tolerance of 0 works
        floor = -max(positivity_tol, 8 * np.finfo(float).eps * abs(tr))
        if evals[0] < floor:
            raise ValueError(f"density matrix has eigenvalue {evals[0]} below {floor}")
        if bipartition is not None:
            da, db = bipartition
            if da * db != m.shape[0]:
                raise ValueError(f"bipartition {bipartition} incompatible with dim {m.shape[0]}")
        self.matrix = m
        self.bipartition = bipartition

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:  # pragma: no cover
        return f"DensityMatrix(dim={self.dim}, bipartition={self.bipartition})"

