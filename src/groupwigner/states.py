"""States in the regular representation of SU(2), stored blockwise.

A pure state is the coefficient family ``psi^(J)_{MN}`` over all irreps
``J <= j_max``, with wavefunction

    psi(g) = sum_J sqrt(N_J) sum_{MN} psi^(J)_{MN} D^J_{MN}(g),   N_J = 2J + 1.

Blocks use the doubled-index conventions of :mod:`.irreps` (row ``i`` of the
spin-``J`` block is ``two_m = two_j - 2*i``).  Mixed states are weighted
ensembles of pure states; only state-pair kernels are ever materialized, no
density matrix over the full coefficient space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import irreps, su2
from .errors import DomainError, SchemaError
from .irreps import _is_count

__all__ = [
    "BlockState",
    "zero_state",
    "basis_state",
    "random_state",
    "norm",
    "inner_product",
    "normalize_state",
    "synthesize",
    "analyze",
    "left_translate",
    "right_translate",
    "DensityEnsemble",
    "pure_ensemble",
    "ensemble_kernel",
    "trace_product",
    "density_coefficients",
    "mollified_state",
    "state_to_payload",
    "state_from_payload",
    "save_state",
    "load_state",
]

#: largest doubled label that a state file (``jmax_twice``) or a CLI flag
#: (``--jmax``, ``--jsum``) may carry; it is checked before anything is
#: allocated for the label
_MAX_TWO_J = 32


@dataclass(frozen=True)
class BlockState:
    """Coefficient blocks per irrep; ``blocks[two_j]`` has shape
    ``(two_j + 1, two_j + 1)`` and every ``two_j <= two_jmax`` is present."""

    blocks: tuple

    def __post_init__(self):
        cast = []
        for two_j, block in enumerate(self.blocks):
            block = np.asarray(block, dtype=complex)
            if block.shape != (two_j + 1, two_j + 1):
                raise ValueError(
                    f"block for two_j={two_j} must have shape "
                    f"{(two_j + 1, two_j + 1)}, got {block.shape}"
                )
            cast.append(block)
        if not cast:
            raise ValueError("a state needs at least the two_j = 0 block")
        object.__setattr__(self, "blocks", tuple(cast))

    @property
    def two_jmax(self) -> int:
        return len(self.blocks) - 1


def zero_state(two_jmax: int) -> BlockState:
    irreps._require_label(two_jmax)
    return BlockState(
        tuple(np.zeros((t + 1, t + 1), dtype=complex) for t in range(two_jmax + 1))
    )


def basis_state(
    two_j: int, two_m: int, two_n: int, two_jmax: int | None = None
) -> BlockState:
    """The normalized coefficient basis state with a single unit entry."""
    irreps._require_label(two_j)
    if two_jmax is None:
        two_jmax = two_j
    if not (_is_count(two_jmax) and two_jmax >= two_j):
        raise DomainError(f"basis_state needs two_jmax >= two_j = {two_j}, got {two_jmax!r}")
    for two_x in (two_m, two_n):
        if not (_is_count(two_x) and abs(two_x) <= two_j and (two_j - two_x) % 2 == 0):
            raise DomainError(
                f"basis_state needs |two_m|, |two_n| <= two_j = {two_j}, of its "
                f"parity, got {two_x!r}"
            )
    state = zero_state(two_jmax)
    state.blocks[two_j][(two_j - two_m) // 2, (two_j - two_n) // 2] = 1.0
    return state


def random_state(rng: np.random.Generator, two_jmax: int) -> BlockState:
    irreps._require_label(two_jmax)
    blocks = tuple(
        rng.standard_normal((t + 1, t + 1)) + 1j * rng.standard_normal((t + 1, t + 1))
        for t in range(two_jmax + 1)
    )
    return normalize_state(BlockState(blocks))


def inner_product(a: BlockState, b: BlockState) -> complex:
    """Hilbert-space inner product ``<a|b>`` (conjugate-linear in ``a``)."""
    total = 0.0 + 0.0j
    for two_j in range(min(a.two_jmax, b.two_jmax) + 1):
        total += np.sum(np.conj(a.blocks[two_j]) * b.blocks[two_j])
    return complex(total)


def norm(state: BlockState) -> float:
    return float(np.sqrt(inner_product(state, state).real))


def normalize_state(state: BlockState) -> BlockState:
    n = norm(state)
    if n == 0.0:
        raise ValueError("cannot normalize the zero state")
    return BlockState(tuple(b / n for b in state.blocks))


def synthesize(state: BlockState, g) -> np.ndarray:
    """Wavefunction values ``psi(g)``; ``g`` of shape ``(..., 4)``."""
    g = su2._as_elements(g)
    out = np.zeros(g.shape[:-1], dtype=complex)
    for two_j, block in enumerate(state.blocks):
        if not np.any(block):
            continue
        d = irreps.dmatrix(two_j, g)
        out += np.sqrt(two_j + 1.0) * np.einsum("...mn,mn->...", d, block)
    return out


def analyze(values, two_jmax: int, grid) -> BlockState:
    """Project function values on ``grid`` onto coefficient blocks.

    ``values`` is either an array of samples at ``grid.nodes`` or a callable
    evaluated on them.  Exact for band-limited functions: the projection
    integrand pairs two irreps of label at most ``two_jmax / 2`` each, so the
    grid must satisfy ``2 * exactness_degree >= two_jmax``.
    """
    grid._require_band(two_jmax, "analysis")
    if callable(values):
        values = values(grid.nodes)
    values = np.asarray(values, dtype=complex)
    if values.shape != (grid.n_nodes,):
        raise ValueError("values must match the grid node count")
    wv = grid.weights * values
    blocks = []
    for two_j in range(two_jmax + 1):
        d = irreps.dmatrix(two_j, grid.nodes)
        blocks.append(
            np.sqrt(two_j + 1.0) * np.einsum("x,xmn->mn", wv, np.conj(d))
        )
    return BlockState(tuple(blocks))


def left_translate(state: BlockState, g1) -> BlockState:
    """The state with wavefunction ``psi'(g) = psi(g1^{-1} g)``.

    Blockwise: ``psi'^(J) = conj(D^J(g1)) @ psi^(J)``.
    """
    g1 = su2._as_elements(g1)
    return BlockState(
        tuple(
            np.conj(irreps.dmatrix(two_j, g1)) @ block
            for two_j, block in enumerate(state.blocks)
        )
    )


def right_translate(state: BlockState, g2) -> BlockState:
    """The state with wavefunction ``psi''(g) = psi(g g2)``.

    Blockwise: ``psi''^(J) = psi^(J) @ D^J(g2).T``.
    """
    g2 = su2._as_elements(g2)
    return BlockState(
        tuple(
            block @ irreps.dmatrix(two_j, g2).T
            for two_j, block in enumerate(state.blocks)
        )
    )


@dataclass(frozen=True)
class DensityEnsemble:
    """Weighted ensemble of pure states: ``rho = sum_i w_i |psi_i><psi_i|``.

    Weights must be positive and sum to 1 (within 1e-10).
    """

    weights: tuple
    states: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or len(w) != len(self.states) or len(w) == 0:
            raise ValueError("weights and states must be equal-length, non-empty")
        if not np.all(w > 0):
            raise ValueError("ensemble weights must be positive")
        if abs(w.sum() - 1.0) > 1e-10:
            raise ValueError(f"ensemble weights must sum to 1, got {w.sum()!r}")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def two_jmax(self) -> int:
        return max(s.two_jmax for s in self.states)


def pure_ensemble(state: BlockState) -> DensityEnsemble:
    return DensityEnsemble((1.0,), (state,))


def as_ensemble(rho) -> DensityEnsemble:
    return rho if isinstance(rho, DensityEnsemble) else pure_ensemble(rho)


def ensemble_kernel(rho, g_row, g_col) -> np.ndarray:
    """Position kernel ``<g_row| rho |g_col> = sum_i w_i psi_i(g_row)
    conj(psi_i(g_col))``; broadcasts over both node arrays."""
    rho = as_ensemble(rho)
    out = None
    for w, state in zip(rho.weights, rho.states):
        term = w * synthesize(state, g_row) * np.conj(synthesize(state, g_col))
        out = term if out is None else out + term
    return out


def trace_product(rho1, rho2) -> float:
    """``Tr(rho1 rho2)`` from coefficient inner products."""
    rho1 = as_ensemble(rho1)
    rho2 = as_ensemble(rho2)
    total = 0.0
    for w, s in zip(rho1.weights, rho1.states):
        for v, t in zip(rho2.weights, rho2.states):
            total += w * v * abs(inner_product(s, t)) ** 2
    return float(total)


def density_coefficients(rho, two_j: int) -> np.ndarray:
    """Matrix elements ``<J M' N'| rho |J M N>`` arranged as
    ``out[M, N, M', N'] = sum_i w_i conj(psi_i[M, N]) psi_i[M', N']``."""
    irreps._require_label(two_j)
    rho = as_ensemble(rho)
    dim = two_j + 1
    out = np.zeros((dim, dim, dim, dim), dtype=complex)
    for w, state in zip(rho.weights, rho.states):
        if two_j > state.two_jmax:
            continue
        block = state.blocks[two_j]
        out += w * np.einsum("mn,pq->mnpq", np.conj(block), block)
    return out


def mollified_state(center, sigma: float, two_jmax: int, grid) -> BlockState:
    """Normalized band-limited Gaussian bump around ``center``: the analysis
    to band ``two_jmax`` of ``exp(-(dist(center, g) / sigma)^2)``."""
    center = np.asarray(center, dtype=float)
    values = np.exp(-((su2.distance(center, grid.nodes) / sigma) ** 2))
    return normalize_state(analyze(values, two_jmax, grid))


# ---------------------------------------------------------------------------
# state files

def _block_payload(state: BlockState) -> list:
    return [
        {
            "two_j": two_j,
            "re": np.real(block).tolist(),
            "im": np.imag(block).tolist(),
        }
        for two_j, block in enumerate(state.blocks)
    ]


def _holds_bool(value) -> bool:
    return isinstance(value, bool) or (
        isinstance(value, list) and any(map(_holds_bool, value))
    )


def _number_array(value, what: str, dtype=float) -> np.ndarray:
    """A JSON number or nested list of numbers as a finite ``dtype`` array.

    numpy would read JSON booleans and numeric strings as numbers and
    truncate floats to ints; these, nulls, ragged lists and non-finite
    entries raise :class:`SchemaError` instead.
    """
    try:
        arr = np.asarray(value)
    except ValueError:
        raise SchemaError(f"{what} must be a rectangular array") from None
    kinds = "iu" if dtype is int else "iuf"
    if (arr.size and arr.dtype.kind not in kinds) or _holds_bool(value):
        kind = "integers" if dtype is int else "numbers"
        raise SchemaError(f"{what} must hold only {kind}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{what} must be finite (no NaN or inf)")
    return arr.astype(dtype)


def _blocks_from_payload(items, two_jmax: int) -> BlockState:
    if not isinstance(items, list):
        raise SchemaError("'blocks' must be a list")
    blocks = [None] * (two_jmax + 1)
    for item in items:
        if not isinstance(item, dict) or not {"two_j", "re", "im"} <= set(item):
            raise SchemaError("each block needs keys two_j, re, im")
        two_j = item["two_j"]
        if not _is_count(two_j) or not 0 <= two_j <= two_jmax:
            raise SchemaError(f"block two_j={two_j!r} outside 0..{two_jmax}")
        real, imag = (
            _number_array(item[k], f"block two_j={two_j} {k!r}") for k in ("re", "im")
        )
        for part in (real, imag):
            if part.shape != (two_j + 1, two_j + 1):
                raise SchemaError(
                    f"block two_j={two_j} must be shape {(two_j + 1, two_j + 1)}, "
                    f"got {part.shape}"
                )
        block = real + 1j * imag
        if blocks[two_j] is not None:
            raise SchemaError(f"duplicate block two_j={two_j}")
        blocks[two_j] = block
    full = [
        b if b is not None else np.zeros((t + 1, t + 1), dtype=complex)
        for t, b in enumerate(blocks)
    ]
    return BlockState(tuple(full))


def state_to_payload(rho) -> dict:
    """JSON payload for a pure state or ensemble (documented schema)."""
    if isinstance(rho, BlockState):
        return {
            "group": "su2",
            "jmax_twice": rho.two_jmax,
            "blocks": _block_payload(rho),
            "normalized": bool(abs(norm(rho) - 1.0) < 1e-10),
        }
    rho = as_ensemble(rho)
    return {
        "group": "su2",
        "jmax_twice": rho.two_jmax,
        "weights": list(rho.weights),
        "components": [{"blocks": _block_payload(s)} for s in rho.states],
        "normalized": bool(
            all(abs(norm(s) - 1.0) < 1e-10 for s in rho.states)
        ),
    }


def state_from_payload(payload) -> DensityEnsemble:
    """Parse the documented su2 state schema into an ensemble."""
    if not isinstance(payload, dict):
        raise SchemaError("state payload must be a JSON object")
    if payload.get("group") != "su2":
        raise SchemaError(f"unsupported group {payload.get('group')!r}")
    two_jmax = payload.get("jmax_twice")
    if not _is_count(two_jmax) or not 0 <= two_jmax <= _MAX_TWO_J:
        raise SchemaError(f"'jmax_twice' must be an integer in 0..{_MAX_TWO_J}")
    if "blocks" in payload:
        return pure_ensemble(_blocks_from_payload(payload["blocks"], two_jmax))
    if "components" not in payload or "weights" not in payload:
        raise SchemaError("state needs either 'blocks' or 'weights'+'components'")
    comps = payload["components"]
    weights = payload["weights"]
    if not isinstance(comps, list) or not isinstance(weights, list):
        raise SchemaError("'components' and 'weights' must be lists")
    if len(comps) != len(weights):
        raise SchemaError("'components' and 'weights' must be equal length")
    states = []
    for comp in comps:
        if not isinstance(comp, dict) or "blocks" not in comp:
            raise SchemaError("each component needs a 'blocks' list")
        states.append(_blocks_from_payload(comp["blocks"], two_jmax))
    weights = _number_array(weights, "'weights'")
    try:
        return DensityEnsemble(tuple(weights.tolist()), tuple(states))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"invalid ensemble: {exc}") from None


def save_state(rho, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_payload(rho), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def _read_json(path):
    """The JSON value in the file at ``path``; a file that cannot be read or
    parsed raises :class:`SchemaError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # also bytes that are not UTF-8
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None


def load_state(path) -> DensityEnsemble:
    return state_from_payload(_read_json(path))
