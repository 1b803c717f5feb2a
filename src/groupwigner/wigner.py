"""Wigner quasi-probability distributions on SU(2) phase space.

The phase-space point is a pair (group element ``g``, irrep labels).  The
distribution is built from the geodesic mid-point construction: the value at
``g`` collects position-kernel matrix elements over all pairs whose mid-point
is ``g``.  After collapsing the mid-point constraint, a pair is parametrized
as ``(g k, g k^{-1})`` with ``k`` on the open hemisphere ``k0 > 0``, and

    W(g; J M N M' N')
        = N_J int_hemi dk jsq(k) <g k| rho |g k^{-1}>
              D^J_{MN}(g k^{-1}) conj(D^J_{M'N'}(g k)),    N_J = 2J + 1,

with ``jsq`` the squaring jacobian.  Two partial traces reduce the block to a
matrix: the "left" trace pairs ``N = N'`` and keeps labels (M, M'); the
"right" trace pairs ``M = M'`` and keeps (N, N').  Both reduce to the same
kernel matrix

    Y(g) = N_J int_hemi dk jsq(k) <g k| rho |g k^{-1}> D^J(k^{-2}),

with left values ``D^J(g) Y D^J(g)^dagger`` and right values ``Y^T``.

Integer two-index conventions follow :mod:`.irreps` (``two_j``, rows in
descending ``m``).  All quadratures take explicit grid objects from
:mod:`.grids`; preconditions on their certified exactness are enforced and
violations raise :class:`~groupwigner.errors.GridTooCoarse`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import irreps, su2
from .errors import DomainError, GridTooCoarse
from .states import _is_count, as_ensemble, synthesize

__all__ = [
    "WignerBlock",
    "WignerTildeBlock",
    "wigner_full",
    "wigner_full_batch",
    "wigner_tilde",
    "wigner_tilde_batch",
    "hermiticity_defect",
    "transform_left",
    "transform_right",
    "marginal_momentum",
    "marginal_position",
    "overlap_trace",
    "reconstruct_kernel",
    "wigner_bruteforce_mollified",
]

_CHUNK = 512
#: first pair members per block of ``wigner_bruteforce_mollified``
_ORACLE_CHUNK = 64


@dataclass(frozen=True)
class WignerBlock:
    """Full distribution value at one phase-space point: ``values`` has shape
    ``(2J+1,)*4`` with index order ``[M, N, M', N']`` (descending labels)."""

    g: np.ndarray
    two_j: int
    values: np.ndarray


@dataclass(frozen=True)
class WignerTildeBlock:
    """Partially traced value: ``variant='left'`` keeps labels (M, M'),
    ``variant='right'`` keeps (N, N'); ``values`` has shape ``(2J+1, 2J+1)``."""

    g: np.ndarray
    two_j: int
    variant: str
    values: np.ndarray


def _require_kgrid(two_jmax: int, two_j: int, kgrid) -> None:
    if not (_is_count(two_j) and two_j >= 0):
        raise DomainError(
            f"doubled irrep labels must be non-negative integers, got {two_j!r}"
        )
    if two_jmax + two_j > kgrid.exactness_twice:
        raise GridTooCoarse(
            f"hemisphere rule certified up to combined doubled degree "
            f"{kgrid.exactness_twice}, need {two_jmax + two_j} "
            f"(state band {two_jmax}, irrep {two_j})"
        )


def _chunks(n: int, size: int = _CHUNK, start: int = 0):
    """Slices of at most ``size`` indices in a row covering ``range(start, n)``."""
    return (slice(lo, min(lo + size, n)) for lo in range(start, n, size))


def _coefficient_count(two_jmax: int) -> int:
    """``n = sum_{t <= two_jmax} (t+1)^2`` coefficients up to a band."""
    return (two_jmax + 1) * (two_jmax + 2) * (2 * two_jmax + 3) // 6


def _coefficients(state, gs: np.ndarray, two_jmax: int):
    """Translated coefficient vectors ``(u, v)`` of one state, each
    ``(G, n)`` with ``n = sum_{t <= two_jmax} (t+1)^2`` and zero above the
    state's band: entry ``(t, a, c)`` of ``u`` is ``sqrt(t+1) sum_m
    D^t_{ma}(g) psi^(t)_{mc}``, and ``v`` is ``conj(u)`` with ``a`` and ``c``
    swapped, so that over the flattened ``D(k)`` of :func:`_k_matrices`

        psi(g k) = u(g) . D(k),    conj(psi(g k^{-1})) = v(g) . D(k).
    """
    u = np.zeros((gs.shape[0], _coefficient_count(two_jmax)), dtype=complex)
    v = np.zeros_like(u)
    for two_jp, block in enumerate(state.blocks):
        if np.any(block):
            cg = np.einsum("gma,mn->gan", irreps.dmatrix(two_jp, gs), block)
            lo, d = _coefficient_count(two_jp - 1), two_jp + 1
            cg *= np.sqrt(d)
            u[:, lo : lo + d * d] = cg.reshape(len(gs), -1)
            v[:, lo : lo + d * d] = np.conj(cg.transpose(0, 2, 1)).reshape(len(gs), -1)
    return u, v


def _k_matrices(ks: np.ndarray, two_jmax: int, start: int = 0) -> np.ndarray:
    """``D^t(k)`` for ``start <= t <= two_jmax``, flattened over ``(t, a, c)``
    like :func:`_coefficients`: shape ``(K, n)`` from ``start = 0``."""
    d = [irreps.dmatrix(t, ks).reshape(len(ks), -1) for t in range(start, two_jmax + 1)]
    return np.concatenate(d, axis=1)


#: largest overlap tensor, in bytes, that a label sum keeps on a hemisphere
#: grid, and largest tensor block built at once (in label or column blocks)
_TENSOR_BYTES = 64 * 2**20
#: largest ``(k, pair)``, ``(pair, column)`` or ``(g, pair)`` array formed
_PAIR_BYTES = 16 * 2**20


@lru_cache(maxsize=None)
def _pair_rows(two_jmax: int):
    """Plane-tensor rows: coefficient pairs ``(ia[r], ib[r])`` sorted by
    gamma frequency ``f = first[alpha] - last[beta] >= 0`` (rows
    ``bounds[f]:bounds[f + 1]``), ``first`` and ``last`` the doubled ``m`` of
    an entry's two indices, and ``delta[alpha] + delta[beta]``, ``delta =
    first - last``."""
    ms = [irreps.two_m_values(t) for t in range(two_jmax + 1)]
    first = np.concatenate([np.repeat(m, len(m)) for m in ms])
    last = np.concatenate([np.tile(m, len(m)) for m in ms])
    f = (first[:, None] - last).ravel()
    order = np.flatnonzero(f >= 0)[np.argsort(f[f >= 0], kind="stable")]
    ia, ib = np.divmod(order, len(first))
    bounds = np.searchsorted(f[order], np.arange(2 * two_jmax + 2))
    return ia, ib, bounds, (first - last)[ia] + (first - last)[ib]


def _plane_tensor(kgrid, two_jmax: int, factor, col_delta: np.ndarray) -> np.ndarray:
    """``T[(alpha, beta), c] = sum_k D_alpha(k) D_beta(k) w[k] f[k, c]``,
    rows as in :func:`_pair_rows`, column-major, for a factor ``f =
    factor(k, k^2)`` whose column ``c`` gains ``e^{i col_delta[c] phi / 2}``
    as ``k`` turns about z by phi, which multiplies ``D^t_{mn}`` by ``e^{-i
    (m - n) phi}`` at ``k`` and ``k^2`` alike: a phi ring sums to its phi = 0
    node, weighted by the ring, where row and column deltas agree, and to
    zero elsewhere (exact on a grid certified for the integrand).  The rows
    stop at ``f >= 0`` since kernels are Hermitian on a grid closed under
    inversion (``theta -> pi - theta``, ``phi -> phi + pi``), as every grid is."""
    ks, k2 = kgrid.nodes[:: kgrid.n_phi], kgrid.squared[:: kgrid.n_phi]
    wj = kgrid.pushforward_weights.reshape(-1, kgrid.n_phi).sum(axis=1)
    ia, ib, _, row_delta = _pair_rows(two_jmax)
    tensor = np.zeros((len(ia), len(col_delta)), dtype=complex, order="F")
    step = max(1, _PAIR_BYTES // (16 * max(_CHUNK, len(col_delta))))
    for sl in _chunks(len(ks), max(1, min(_CHUNK, _PAIR_BYTES // (16 * len(col_delta))))):
        dk = np.ascontiguousarray(_k_matrices(ks[sl], two_jmax).T)
        dkw = dk * wj[sl]
        f = factor(ks[sl], k2[sl])
        for rows in _chunks(len(ia), step):
            block = (dk[ia[rows]] * dkw[ib[rows]]) @ f
            block[row_delta[rows, None] != col_delta] = 0
            tensor[rows] += block
    return tensor


def _overlap_tensor(kgrid, two_jmax: int, labels: range, keep: bool) -> np.ndarray:
    """The plane tensor of ``conj(D^t(k^2)_{ba})`` for ``t`` in ``labels``,
    columns ``(t, b, a)`` as in :func:`_k_matrices`; with ``keep`` it stays
    on ``kgrid``, and a smaller cutoff reads its leading columns."""
    lo, hi = _coefficient_count(labels.start - 1), _coefficient_count(labels.stop - 1)
    tensor = kgrid._overlap_tensors.get(two_jmax)
    if tensor is not None and tensor.shape[1] >= hi:
        return tensor[:, lo:hi]
    col_delta = np.concatenate(
        [np.subtract.outer(m, m).ravel() for m in map(irreps.two_m_values, labels)]
    )
    tensor = _plane_tensor(kgrid, two_jmax, lambda k, k2: np.conj(
        _k_matrices(k2, labels.stop - 1, labels.start)), col_delta)
    if keep:
        kgrid._overlap_tensors.clear()
        kgrid._overlap_tensors[two_jmax] = tensor
    return tensor


def _label_tensors(kgrid, two_jmax: int, two_jsum: int):
    """``(labels, overlap tensor)`` for ``t <= two_jsum`` in blocks of labels
    whose columns fit in ``_TENSOR_BYTES`` (at least one), kept on ``kgrid``
    if one block holds all; drop each before asking for the next."""
    blocks, columns = [0], _TENSOR_BYTES // (16 * len(_pair_rows(two_jmax)[0]))
    for t in range(1, two_jsum + 1):
        if _coefficient_count(t) - _coefficient_count(blocks[-1] - 1) > columns:
            blocks.append(t)
    for labels in map(range, blocks, blocks[1:] + [two_jsum + 1]):
        yield labels, _overlap_tensor(kgrid, two_jmax, labels, keep=len(blocks) == 1)


def _traced_kernels(rho, gs: np.ndarray, tensor: np.ndarray, two_jmax: int, fold=False):
    """``R(g) @ T`` split by the frequency of the tensor's rows, shape ``(2
    two_jmax + 1, G, columns)``, with ``R[g, (alpha, beta)] = sum_s w_s
    u_s,alpha(g) v_s,beta(g)`` formed a block of rows at a time, so that the
    few ``(g, pair)`` arrays alive at once stay within ``_PAIR_BYTES``.
    ``fold`` sums the frequencies, ``f = 0`` at half weight, to ``(G,
    columns)``: frequency ``-f`` being the adjoint of ``f``, that plus its
    adjoint (:func:`_add_adjoint`) is ``R(g) @ T`` over every pair."""
    ia, ib, bounds, _ = _pair_rows(two_jmax)
    parts = [(0, len(ia))] if fold else list(zip(bounds[:-1], bounds[1:]))
    out = np.zeros((len(parts), len(gs), tensor.shape[1]), dtype=complex)
    for sl in _chunks(len(gs)):
        coefficients = [
            (w, *(x.T.copy() for x in _coefficients(state, gs[sl], two_jmax)))
            for w, state in zip(rho.weights, rho.states)
        ]
        step = max(1, _PAIR_BYTES // (64 * (sl.stop - sl.start)))
        for f, (lo, hi) in enumerate(parts):
            for rows in _chunks(hi, step, lo):
                r = sum(w * u[ia[rows]] * v[ib[rows]] for w, u, v in coefficients)
                if fold:
                    r[: max(bounds[1] - rows.start, 0)] *= 0.5
                out[f, sl] += r.T @ tensor[rows]
    return out[0] if fold else out


def _add_adjoint(x: np.ndarray, d: int) -> np.ndarray:
    """``X + X^dagger`` for the ``d x d`` block ``X`` of each row of ``x``."""
    x = x.reshape(len(x), d, d)
    return x + np.conj(x.transpose(0, 2, 1))


def wigner_full_batch(rho, gs, two_j: int, kgrid) -> np.ndarray:
    """Distribution values at many points: shape ``(G, 2J+1, ..., 2J+1)``
    with block index order ``[M, N, M', N']``."""
    rho = as_ensemble(rho)
    _require_kgrid(rho.two_jmax, two_j, kgrid)
    gs = su2._as_elements(gs)
    dim, band = two_j + 1, rho.two_jmax
    # pair_factor[k, (a, n, b, q)] = conj(D_na(k)) conj(D_bq(k)) collects the
    # k-dependence of D_{MN}(g k^{-1}) conj(D_{M'N'}(g k)) after splitting
    # off D(g); its column turns by (m_n - m_a) + (m_b - m_q)
    def pair_factor(k, k2):
        cdk = np.conj(irreps.dmatrix(two_j, k))
        return np.einsum("kna,kbq->kanbq", cdk, cdk).reshape(len(k), -1)[:, cols]

    delta = np.subtract.outer(*[irreps.two_m_values(two_j)] * 2)
    col_delta = np.add.outer(delta.T, delta).ravel()
    x = np.empty((len(gs), dim**4), dtype=complex)
    for cols in _chunks(dim**4, max(1, _TENSOR_BYTES // (16 * len(_pair_rows(band)[0])))):
        tensor = _plane_tensor(kgrid, band, pair_factor, col_delta[cols])
        x[:, cols] = _traced_kernels(rho, gs, tensor, band, fold=True)
        del tensor  # before the next block is built
    x = _add_adjoint(x, dim * dim)
    dgj = irreps.dmatrix(two_j, gs)
    return np.einsum(
        "gma,ganbq,gpb->gmnpq", (two_j + 1.0) * dgj, x.reshape((-1,) + (dim,) * 4),
        np.conj(dgj), optimize=True,
    )


def wigner_full(rho, g, two_j: int, kgrid) -> WignerBlock:
    """Distribution value at a single point, as a :class:`WignerBlock`."""
    g = np.asarray(g, dtype=float)
    values = wigner_full_batch(rho, g[None, :], two_j, kgrid)[0]
    return WignerBlock(g=g, two_j=two_j, values=values)


def wigner_tilde_batch(rho, gs, two_j: int, kgrid, variant: str = "left"):
    """Partially traced distribution at many points, shape ``(G, 2J+1, 2J+1)``.

    ``variant='left'``: labels (M, M'), values ``D^J(g) Y D^J(g)^dagger``.
    ``variant='right'``: labels (N, N'), values ``Y^T``.
    """
    rho = as_ensemble(rho)
    _require_kgrid(rho.two_jmax, two_j, kgrid)
    gs = su2._as_elements(gs)
    if variant not in ("left", "right"):
        raise ValueError(f"variant must be 'left' or 'right', got {variant!r}")
    # the plane tensor of conj(D^J(k^2)), flattened over (b, a), makes the
    # traced kernel Y(g)^T / N_J, since D^J(k^{-2})_{ab} = conj(D^J(k^2)_{ba})
    band = rho.two_jmax
    tensor = _overlap_tensor(kgrid, band, range(two_j, two_j + 1), keep=False)
    x = _traced_kernels(rho, gs, tensor, band, fold=True)
    y_t = (two_j + 1.0) * _add_adjoint(x, two_j + 1)
    if variant == "right":
        return y_t
    dg = irreps.dmatrix(two_j, gs)
    return np.einsum("gma,gba,gnb->gmn", dg, y_t, np.conj(dg), optimize=True)


def wigner_tilde(rho, g, two_j: int, kgrid, variant: str = "left") -> WignerTildeBlock:
    g = np.asarray(g, dtype=float)
    values = wigner_tilde_batch(rho, g[None, :], two_j, kgrid, variant)[0]
    return WignerTildeBlock(g=g, two_j=two_j, variant=variant, values=values)


def hermiticity_defect(values: np.ndarray) -> float:
    """Max deviation of a full block from ``W[M,N,M',N'] = conj(W[M',N',M,N])``."""
    values = np.asarray(values)
    return float(np.max(np.abs(values - np.conj(values.transpose(2, 3, 0, 1)))))


def transform_left(block: WignerBlock, h) -> WignerBlock:
    """Covariance image of a block under left translation of the state by
    ``h``: returns the block of the translated state at the point ``h g``."""
    h = su2._as_elements(h)
    d = irreps.dmatrix(block.two_j, h)
    values = np.einsum("ma,pb,anbq->mnpq", d, np.conj(d), block.values)
    return WignerBlock(
        g=su2.mul(h, block.g), two_j=block.two_j, values=values
    )


def transform_right(block: WignerBlock, h) -> WignerBlock:
    """Covariance image under right translation of the state by ``h^{-1}``
    (wavefunction ``psi(. h)``): the block of the new state at ``g h^{-1}``."""
    h = su2._as_elements(h)
    dinv = irreps.dmatrix(block.two_j, su2.inverse(h))
    values = np.einsum(
        "makb,an,bq->mnkq", block.values, dinv, np.conj(dinv)
    )
    return WignerBlock(
        g=su2.mul(block.g, su2.inverse(h)), two_j=block.two_j, values=values
    )


def marginal_momentum(rho, two_j: int, ggrid, kgrid) -> np.ndarray:
    """Group-integral of the full block over phase space: returns the
    ``(2J+1,)*4`` array of irrep-space matrix elements
    ``<J M' N'| rho |J M N>`` at entry ``[M, N, M', N']``."""
    rho = as_ensemble(rho)
    _require_kgrid(rho.two_jmax, two_j, kgrid)  # the band below adds the label
    ggrid._require_band(rho.two_jmax + two_j, "momentum marginal")
    vals = wigner_full_batch(rho, ggrid.nodes, two_j, kgrid)
    return np.einsum("g,gmnpq->mnpq", ggrid.weights, vals)


def _character_sums(rho, gs: np.ndarray, r, two_jsum: int, kgrid) -> np.ndarray:
    """Irrep-label increments ``inc[g, t] = (t+1) sum_k c[g, k] w[k]
    chi^t(k^{-2} r)`` of the pair kernel at each ``g``, shape
    ``(G, two_jsum + 1)``.

    By ``tr Y(g; J) D^J(r) = N_J sum_k c w chi^J(k^{-2} r)`` this is the
    label-sum term of both the position density (``r = e``) and the kernel
    reconstruction (``g = s(g1, g2)``, ``r = g2^{-1} g1``).  Since
    ``chi^t(k^{-2} r) = sum_ba conj(D^t(k^2))_ba D^t(r)_ba``, it is each
    label's traced kernel ``y[g, (t, b, a)]`` contracted with ``D^t(r)``.
    """
    band = rho.two_jmax
    out = np.empty((len(gs), two_jsum + 1), dtype=complex)
    for labels, tensor in _label_tensors(kgrid, band, two_jsum):
        dims = np.arange(labels.start + 1, labels.stop + 1)
        for sl in _chunks(len(gs)):
            y = _traced_kernels(rho, gs[sl], tensor, band, fold=True)
            for d, x in zip(dims, np.split(y, np.cumsum(dims**2)[:-1], axis=1)):
                dr = irreps.dmatrix(d - 1, r)
                out[sl, d - 1] = d * np.einsum("gba,ba->g", _add_adjoint(x, d), dr)
        del tensor  # before the next block is built
    return out


def marginal_position(rho, g, two_jsum: int, kgrid):
    """Irrep-label sum of traced blocks at position ``g``: partial sums of

        sum_{2J <= two_jsum} N_J tr Y(g; J)

    which converge to the position density ``<g| rho |g>``.  Returns
    ``(values, increments)`` where ``increments[..., t]`` is the ``2J = t``
    term and ``values = increments.sum(-1)``; both are real arrays shaped
    like ``g`` without its last axis.  This is the ``g1 = g2 = g`` diagonal
    of :func:`reconstruct_kernel`, whose mid-point is ``g`` itself.
    """
    rho = as_ensemble(rho)
    _require_kgrid(rho.two_jmax, two_jsum, kgrid)
    g = su2._as_elements(g)
    lead = g.shape[:-1]
    gs = g.reshape(-1, 4)
    increments = _character_sums(rho, gs, su2.identity(), two_jsum, kgrid).real
    values = increments.sum(axis=-1)
    return values.reshape(lead), increments.reshape(lead + (two_jsum + 1,))


def _label_terms(wg: np.ndarray, y1: np.ndarray, y2: np.ndarray, labels: range):
    """``(2J+1) sum_g w_g Re tr(V_1 V_2)`` for ``2J`` in ``labels``, from
    :func:`_traced_kernels`.  ``V_2`` is Hermitian, the hemisphere nodes
    being closed under inversion, so the trace is ``sum V_1 conj(V_2)``, and
    frequency ``-f`` is the conjugate transpose of ``f``: ``f > 0`` counts
    twice."""
    w = np.outer(np.where(np.arange(len(y1)) > 0, 2.0, 1.0), wg).ravel()
    prod = (y1.view(float) * y2.view(float)).reshape(len(w), -1)
    terms = (w @ prod).reshape(-1, 2).sum(axis=1)
    dims = np.arange(labels.start + 1, labels.stop + 1)
    return np.bincount(np.repeat(dims - 1 - labels.start, dims**2), terms) * dims


def overlap_trace(rho1, rho2, two_jsum: int, ggrid, kgrid, variant: str = "left"):
    """Phase-space overlap functional: partial sums over irreps of

        N_J^{-1} int dg tr( tilde-W_1(g; J) tilde-W_2(g; J) )

    which converge to ``Tr(rho_1 rho_2)``.  Returns ``(value, increments)``
    with ``increments[t]`` the ``2J = t`` term (real).  Both variants give
    one number, since ``D^J(g)`` is unitary, so ``variant`` is only validated.

    The pair kernel factorises as ``c[g, k] = R(g) . P(k)`` with ``P[k,
    (alpha, beta)] = D_alpha(k) D_beta(k)``, so every label's hemisphere
    integral is one state-independent tensor (:func:`_overlap_tensor`); the
    state of lower band is padded to the larger band.  Along a gamma ring,
    entry ``(alpha, beta)`` of ``R(g)`` turns by ``e^{-i gamma f / 2}``, so
    the group integral runs on the gamma = 0 plane, weighted by the rings,
    with frequency ``f`` of one state meeting ``-f`` of the other (exact:
    ``|f_1 + f_2| <= 4 exactness_degree < n_gamma``).  A tensor within
    ``_TENSOR_BYTES`` is kept on ``kgrid``; a larger one is built in blocks
    of whole labels, each contracted and dropped.
    """
    rho1, rho2 = as_ensemble(rho1), as_ensemble(rho2)
    if variant not in ("left", "right"):
        raise ValueError(f"variant must be 'left' or 'right', got {variant!r}")
    ggrid._require_band(rho1.two_jmax + rho2.two_jmax, "overlap")
    band = max(rho1.two_jmax, rho2.two_jmax)
    _require_kgrid(band, two_jsum, kgrid)
    plane = ggrid.nodes[:: ggrid.n_gamma]
    wg = ggrid.weights.reshape(-1, ggrid.n_gamma).sum(axis=1)
    increments = np.empty(two_jsum + 1)
    for labels, tensor in _label_tensors(kgrid, band, two_jsum):
        y1, y2 = (_traced_kernels(r, plane, tensor, band) for r in (rho1, rho2))
        increments[labels.start : labels.stop] = _label_terms(wg, y1, y2, labels)
        del tensor, y1, y2  # before the next block is built
    return float(increments.sum()), increments


def reconstruct_kernel(rho, g1, g2, two_jsum: int, kgrid, variant: str = "left"):
    """Position kernel ``<g1| rho |g2>`` rebuilt from the distribution at the
    geodesic mid-point ``s(g1, g2)``.  Partial sums over irreps of

        left:  sum_{M M'} tilde-W(s; J M M') D^J_{M' M}(g1 g2^{-1})
        right: sum_{N N'} tilde-tilde-W(s; J N N') D^J_{N N'}(g2^{-1} g1)

    Both are ``tr Y(s; J) D^J(g2^{-1} g1)`` — the left form conjugates by
    the unitary ``D^J(s)``, and ``s^{-1} g1 g2^{-1} s = g2^{-1} g1`` — so
    both variants return one value, from a single pair-kernel evaluation at
    ``s``; ``variant`` is still validated and stays for compatibility.

    Returns ``(value, increments)``; raises
    :class:`~groupwigner.errors.AntipodalPair` when the mid-point is undefined.
    """
    rho = as_ensemble(rho)
    _require_kgrid(rho.two_jmax, two_jsum, kgrid)
    if variant not in ("left", "right"):
        raise ValueError(f"variant must be 'left' or 'right', got {variant!r}")
    g1 = su2._as_elements(g1)
    g2 = su2._as_elements(g2)
    s = su2.midpoint(g1, g2)
    rel = su2.mul(su2.inverse(g2), g1)
    increments = _character_sums(rho, s[None, :], rel, two_jsum, kgrid)[0]
    return complex(increments.sum()), increments


def wigner_bruteforce_mollified(rho, g, two_j: int, epsilons, grid):
    """Oracle evaluation of the defining pair-space double integral.

    The mid-point constraint is mollified with a geodesic Gaussian of width
    ``epsilon`` (profile ``exp(-(d / epsilon)^2)`` in geodesic distance
    ``d``) and the mollifier is renormalized on-grid, so this path uses
    no hemisphere rule, no squaring jacobian and no analytic normalization —
    only Haar sampling of pairs, the mid-point map, the position kernel and
    irrep matrices.  Pairs within machine tolerance of antipodal (mid-point
    undefined) carry zero mollifier weight.

    ``epsilons`` may be a scalar or a sequence; a sequence reuses the
    mid-point geometry across widths and returns a stacked array of blocks.
    """
    rho = as_ensemble(rho)
    g = su2._as_elements(g)
    eps = np.atleast_1d(np.asarray(epsilons, dtype=float))
    scalar_in = np.isscalar(epsilons) or np.ndim(epsilons) == 0
    nodes, w = grid.nodes, grid.weights
    n = grid.n_nodes
    dim = two_j + 1
    d_all = irreps.dmatrix(two_j, nodes)
    d_flat = d_all.reshape(n, dim * dim)
    psi_at = [synthesize(s, nodes) for s in rho.states]
    w_acc = np.zeros((len(eps), dim * dim, dim * dim), dtype=complex)
    z_acc = np.zeros(len(eps))
    inv_eps2 = 1.0 / eps**2
    # the mid-point (a + b) / |a + b| meets g at (a.g + b.g) / |a + b|
    node_g = nodes @ g
    # the (b, a) half of the pair sum is the adjoint of the (a, b) half: a
    # chunk meets the nodes from its own start, its own at half weight
    for sl in _chunks(n, _ORACLE_CHUNK):
        rest = slice(sl.start, n)
        dots = nodes[sl] @ nodes[rest].T
        usable = (1.0 + dots) > su2.ANTIPODAL_EPS
        denom = np.sqrt(np.where(usable, 2.0 * (1.0 + dots), 1.0))
        dist = np.arccos(np.clip((node_g[sl, None] + node_g[rest]) / denom, -1.0, 1.0))
        kern = np.zeros(dist.shape, dtype=complex)
        for wt, psi in zip(rho.weights, psi_at):
            kern += wt * psi[sl][:, None] * np.conj(psi[rest])[None, :]
        pair_w = np.where(usable, w[sl][:, None] * w[rest], 0.0)
        pair_w[:, : sl.stop - sl.start] *= 0.5
        conj_da = np.conj(d_all[sl]).reshape(-1, dim * dim)
        for ei in range(len(eps)):
            moll = pair_w * np.exp(-(dist**2) * inv_eps2[ei])
            z_acc[ei] += 2.0 * moll.sum()
            t = moll * kern
            w_acc[ei] += (t @ d_flat[rest]).T @ conj_da
    w_acc += np.conj(w_acc.transpose(0, 2, 1))
    blocks = (two_j + 1.0) * w_acc / z_acc[:, None, None]
    blocks = blocks.reshape(len(eps), dim, dim, dim, dim)
    return blocks[0] if scalar_in else blocks

