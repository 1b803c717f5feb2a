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

from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import irreps, su2
from .errors import GridTooCoarse
from .states import as_ensemble, synthesize

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
    irreps._require_label(two_j)
    if two_jmax + two_j > kgrid.exactness_twice:
        raise GridTooCoarse(
            f"hemisphere rule certified up to combined doubled degree "
            f"{kgrid.exactness_twice}, need {two_jmax + two_j} "
            f"(state band {two_jmax}, irrep {two_j})"
        )


def _chunks(n: int, size: int = _CHUNK):
    """Slices of at most ``size`` indices in a row covering ``range(n)``."""
    return (slice(lo, min(lo + size, n)) for lo in range(0, n, size))


def _coefficient_count(two_jmax: int) -> int:
    """``n = sum_{t <= two_jmax} (t+1)^2`` coefficients up to a band."""
    return (two_jmax + 1) * (two_jmax + 2) * (2 * two_jmax + 3) // 6


def _coefficients(state, dg, two_jmax: int):
    """Translated coefficient vectors ``(u, v)`` of one state at the G group
    elements of ``dg[t] = D^t(g)``, each ``(G, n)`` with ``n = sum_{t <=
    two_jmax} (t+1)^2`` and zero above the state's band: entry ``(t, a, c)``
    of ``u`` is ``sqrt(t+1) sum_m D^t_{ma}(g) psi^(t)_{mc}``, and ``v`` is
    ``conj(u)`` with ``a`` and ``c`` swapped, so that over the flattened
    ``D(k)`` of :func:`_k_matrices`

        psi(g k) = u(g) . D(k),    conj(psi(g k^{-1})) = v(g) . D(k).
    """
    n_g = len(dg[0])
    u = np.zeros((n_g, _coefficient_count(two_jmax)), dtype=complex)
    v = np.zeros_like(u)
    for two_jp, block in enumerate(state.blocks):
        if np.any(block):
            # cg[g, c, a] = sum_m psi_mc D^t_ma(g)
            cg = block.T @ dg[two_jp]
            lo, d = _coefficient_count(two_jp - 1), two_jp + 1
            cg *= np.sqrt(d)
            u[:, lo : lo + d * d] = cg.transpose(0, 2, 1).reshape(n_g, -1)
            v[:, lo : lo + d * d] = np.conj(cg).reshape(n_g, -1)
    return u, v


def _k_matrices(ks: np.ndarray, two_jmax: int) -> np.ndarray:
    """``D^t(k)`` for ``t <= two_jmax``, flattened over ``(t, a, c)`` like
    :func:`_coefficients`: shape ``(K, n)``."""
    d = [irreps.dmatrix(t, ks).reshape(len(ks), -1) for t in range(two_jmax + 1)]
    return np.concatenate(d, axis=1)


def _plane_dmatrices(ggrid, two_jmax: int) -> list:
    """``D^t`` for ``t <= two_jmax`` on the gamma = 0 plane of ``ggrid``,
    each built by the first call that needs it and kept on the grid."""
    kept, plane = ggrid._plane_dmatrices, ggrid.nodes[:: ggrid.n_gamma]
    for t in range(two_jmax + 1):
        if t not in kept:
            kept[t] = irreps.dmatrix(t, plane)
    return [kept[t] for t in range(two_jmax + 1)]


#: largest overlap tensor, in bytes of its blocks, that a label sum keeps on
#: a hemisphere grid, and largest tensor built at once (in label or column runs)
_TENSOR_BYTES = 64 * 2**20
#: entries of a plane tensor, which is real (see :func:`_plane_tensor`)
_ENTRY = np.dtype(np.float64)
#: largest ``(k, pair)``, ``(pair, column)`` or ``(g, pair)`` array formed
_PAIR_BYTES = 16 * 2**20


@lru_cache(maxsize=None)
def _pair_rows(two_jmax: int):
    """Plane-tensor rows: coefficient pairs ``(ia[r], ib[r])`` of gamma
    frequency ``f = first[alpha] - last[beta] >= 0``, sorted by ``delta[alpha]
    + delta[beta]`` and then by ``f``, ``first`` and ``last`` the doubled
    ``m`` of an entry's two indices and ``delta = first - last``.  Row block
    ``b``, rows ``starts[b]:starts[b + 1]``, holds one frequency ``freq[b]``
    and one delta ``delta[b]``; the blocks of one delta are consecutive."""
    ms = [irreps.two_m_values(t) for t in range(two_jmax + 1)]
    first = np.concatenate([np.repeat(m, len(m)) for m in ms])
    last = np.concatenate([np.tile(m, len(m)) for m in ms])
    f = (first[:, None] - last).ravel()
    delta = np.add.outer(first - last, first - last).ravel()
    kept = np.flatnonzero(f >= 0)
    order = kept[np.lexsort((f[kept], delta[kept]))]
    ia, ib = np.divmod(order, len(first))
    f, delta = f[order], delta[order]
    new = np.flatnonzero(np.diff(f, prepend=-1) | np.diff(delta, prepend=delta[0] - 1))
    return ia, ib, np.append(new, len(order)), f[new], delta[new]


def _label_deltas(two_j: int) -> np.ndarray:
    """``m_b - m_a`` (doubled) of every entry ``(b, a)`` of a ``D^t`` block."""
    m = irreps.two_m_values(two_j)
    return np.subtract.outer(m, m).ravel()


def _block_entries(two_jmax: int, col_delta: np.ndarray) -> np.ndarray:
    """Entries each column adds to a blocked tensor: the rows whose delta is
    the column's."""
    _, _, starts, _, delta = _pair_rows(two_jmax)
    top = 4 * two_jmax
    rows = np.bincount(np.repeat(delta, np.diff(starts)) + top, minlength=2 * top + 1)
    return np.where(np.abs(col_delta) <= top, rows[np.clip(col_delta + top, 0, 2 * top)], 0)


@lru_cache(maxsize=None)
def _label_entries(two_jmax: int, two_j: int) -> int:
    """Entries that the columns of label ``two_j`` add to a blocked tensor."""
    return int(_block_entries(two_jmax, _label_deltas(two_j)).sum())


def _runs(entries) -> list:
    """Split points of consecutive runs of items of ``entries`` tensor
    entries (``_ENTRY`` each), each run within ``_TENSOR_BYTES`` or one item."""
    total, splits = np.cumsum(entries), [0]
    while splits[-1] < len(total):
        base = total[splits[-1] - 1] if splits[-1] else 0
        end = int(np.searchsorted(total, base + _TENSOR_BYTES // _ENTRY.itemsize, "right"))
        splits.append(max(splits[-1] + 1, end))
    return splits


def _meet(lo, hi, rows: slice):
    """``(i, a, b)`` for each row range ``lo[i]:hi[i]`` (ascending, disjoint)
    that meets the chunk ``rows``: the chunk's rows ``a`` are its rows ``b``."""
    for i in range(bisect_right(hi, rows.start), len(lo)):
        if lo[i] >= rows.stop:
            return
        top, end = max(lo[i], rows.start), min(hi[i], rows.stop)
        yield i, slice(top - rows.start, end - rows.start), slice(top - lo[i], end - lo[i])


#: the row blocks of a :class:`_BlockTensor`, each field a tuple over them
_Blocks = namedtuple("_Blocks", "lo hi freq stripe data")


@dataclass(frozen=True, eq=False)
class _BlockTensor:
    """A real plane tensor of ``n_columns`` columns kept by its U(1) blocks.
    Stripe ``s`` is the rows ``lo[s]:hi[s]`` of :func:`_pair_rows` of one
    delta against ``cols[s]``, the ascending indices of the columns of that
    delta, in ``data[s]``; every other entry is a zero of the phi rule.  The
    row blocks of a stripe, one frequency each, are :attr:`blocks`.  An
    overlap tensor's columns are the ``(t, b, a)`` of :func:`_k_matrices`
    for ``t`` in ``labels``."""

    two_jmax: int
    lo: tuple
    hi: tuple
    cols: tuple
    data: tuple
    n_columns: int
    labels: range = range(0)

    @cached_property
    def blocks(self) -> _Blocks:
        """The rows ``lo:hi`` of frequency ``freq`` in each stripe, and their
        ``data``, a view of the stripe's."""
        _, _, starts, freq, _ = _pair_rows(self.two_jmax)
        out = []
        for s, (lo, hi) in enumerate(zip(self.lo, self.hi)):
            for b in range(np.searchsorted(starts, lo), np.searchsorted(starts, hi)):
                a, z = int(starts[b]), int(starts[b + 1])
                out.append((a, z, int(freq[b]), s, self.data[s][a - lo : z - lo]))
        return _Blocks(*zip(*out))

    @cached_property
    def spans(self) -> list:
        """Where :func:`_traced_kernels` puts each block's columns."""
        ends = np.cumsum([0] + [len(self.cols[s]) for s in self.blocks.stripe])
        return list(map(slice, ends[:-1], ends[1:]))

    @cached_property
    def compact(self) -> tuple:
        """Label (counted from ``labels.start``) and weight (2 at ``f > 0``,
        else 1) of each compact column."""
        stripes, twice = self.blocks.stripe, [1.0 + (f > 0) for f in self.blocks.freq]
        sizes = [len(self.cols[s]) for s in stripes]
        ends = np.cumsum(np.arange(self.labels.start + 1, self.labels.stop + 1) ** 2)
        columns = np.concatenate([self.cols[s] for s in stripes])
        return np.searchsorted(ends, columns, "right"), np.repeat(twice, sizes)

    def columns(self, labels: range) -> _BlockTensor:
        """The overlap tensor of ``labels``, its stripes views of these."""
        if labels == self.labels:
            return self
        lo, hi = (_coefficient_count(t - 1) - _coefficient_count(self.labels.start - 1)
                  for t in (labels.start, labels.stop))
        cut = [slice(*np.searchsorted(c, (lo, hi))) for c in self.cols]
        keep = [s for s, c in enumerate(cut) if c.stop > c.start]
        return _BlockTensor(
            self.two_jmax, *(tuple(x[s] for s in keep) for x in (self.lo, self.hi)),
            tuple(self.cols[s][cut[s]] - lo for s in keep),
            tuple(self.data[s][:, cut[s]] for s in keep), hi - lo, labels,
        )


def _plane_tensor(kgrid, two_jmax: int, factor, col_delta: np.ndarray) -> _BlockTensor:
    """``T[(alpha, beta), c] = sum_k D_alpha(k) D_beta(k) w[k] f[k, c]`` by
    U(1) blocks, rows as in :func:`_pair_rows`, for a factor ``f`` of
    ``D(k)`` and ``D(k^2)`` whose column ``c`` gains ``e^{i col_delta[c] phi
    / 2}`` as ``k`` turns about z by phi, which multiplies ``D^t_{mn}`` by
    ``e^{-i (m - n) phi}`` at ``k`` and ``k^2`` alike: a phi ring sums to
    its phi = 0 node, weighted by the ring, where row and column deltas
    agree, and to zero elsewhere (exact on a grid certified for the
    integrand), so only the stripes where they agree are built.
    ``factor(sl)`` is ``f`` at the plane nodes ``sl``.  The rows stop at
    ``f >= 0`` since kernels are Hermitian on a grid closed under inversion
    (``theta -> pi - theta``, ``phi -> phi + pi``), as every grid is.

    ``T`` is real, so only its real part is formed.  Entrywise conjugation
    of ``u(a)`` is the automorphism ``a -> (a0, -a1, a2, -a3)``, and
    ``D^t(conj u) = conj(D^t(u))``, so the summand at the image of a node
    is the conjugate of the summand at the node (``f`` being a product of
    D-matrix entries and conjugates).  The map sends the phi = 0 node at
    theta to the phi = pi node at ``pi - theta``, which is on the grid with
    the same weight (mirrored theta rule, even ``n_phi``), and inside a
    stripe the summand is the same all along a phi ring: the plane's sum is
    its own conjugate."""
    ks = kgrid.nodes[:: kgrid.n_phi]
    wj = kgrid.pushforward_weights.reshape(-1, kgrid.n_phi).sum(axis=1)
    ia, ib, starts, _, delta = _pair_rows(two_jmax)
    # the first block of each delta; sorted by delta, the columns of each
    # delta are one run, in their order
    first = np.flatnonzero(np.diff(delta, prepend=delta[0] - 1))
    order = np.argsort(col_delta, kind="stable")
    runs = [slice(*np.searchsorted(col_delta[order], (d, d + 1))) for d in delta[first]]
    kept = [s for s, run in enumerate(runs) if run.stop > run.start]
    lo, hi = starts[first], np.append(starts[first[1:]], len(ia))
    tensor = _BlockTensor(
        two_jmax, tuple(int(lo[s]) for s in kept), tuple(int(hi[s]) for s in kept),
        tuple(order[runs[s]] for s in kept),
        tuple(np.zeros((hi[s] - lo[s], runs[s].stop - runs[s].start), dtype=_ENTRY)
              for s in kept),
        len(col_delta),
    )
    step = max(1, _PAIR_BYTES // (16 * max(_CHUNK, len(col_delta))))
    for sl in _chunks(len(ks), max(1, min(_CHUNK, _PAIR_BYTES // (16 * len(col_delta))))):
        dk = np.ascontiguousarray(_k_matrices(ks[sl], two_jmax).T)
        dkw = dk * wj[sl]
        # Re(p @ f) as one real product: a row of p, read as floats, is
        # (Re, Im) node by node, and meets (Re f, -Im f) = conj(f) as floats
        f = factor(sl).T[order]
        f = np.conj(f, out=f).view(float).T
        for rows in _chunks(len(ia), step):
            p = (dk[ia[rows]] * dkw[ib[rows]]).view(float)
            for s, here, there in _meet(tensor.lo, tensor.hi, rows):
                tensor.data[s][there] += p[here] @ f[:, runs[kept[s]]]
    return tensor


def _squared_factor(kgrid, labels: range):
    """``factor(sl)`` of :func:`_plane_tensor` for ``conj(D^t(k^2)_{ba})``,
    ``t`` in ``labels``, columns ``(t, b, a)`` as in :func:`_k_matrices`,
    from class angles: the plane node at ``(psi, theta)``, ``cos psi =
    a0``, is ``R_y(theta) e^{-i psi sigma_z} R_y(theta)^{-1}``, so
    ``D^t(k^2) = d^t(theta) Lambda_t d^t(theta)^T`` with ``Lambda_t =
    diag(e^{-2i two_l psi})``, and ``d^t`` is needed at the ``n_theta``
    angles only."""
    theta, psi = np.arccos(kgrid.cos_theta), np.arccos(kgrid.axial)
    d = [irreps.little_d_matrix(t, theta) for t in labels]
    phase = [2.0 * np.outer(psi, irreps.two_m_values(t)) for t in labels]
    ends = [_coefficient_count(t) - _coefficient_count(labels.start - 1) for t in labels]

    def factor(sl):
        axial, polar = np.divmod(np.arange(sl.start, sl.stop), len(theta))
        out = np.empty((len(polar), ends[-1]), dtype=complex)
        # (Re, Im) of conj(Lambda_t) = (cos, sin), both in one product
        parts = out.view(float).reshape(len(polar), -1, 2)
        for dt, pt, hi in zip(d, phase, ends):
            dc, p, dim = dt[polar], pt[axial][:, None], dt.shape[-1]
            x = np.empty((len(polar), 2, dim, dim))
            np.multiply(dc, np.cos(p), out=x[:, 0])
            np.multiply(dc, np.sin(p), out=x[:, 1])
            y = x.reshape(len(polar), 2 * dim, dim) @ dc.transpose(0, 2, 1)
            parts[:, hi - dim * dim : hi] = y.reshape(len(polar), 2, -1).transpose(0, 2, 1)
        return out

    return factor


def _overlap_tensor(kgrid, two_jmax: int, labels: range, keep: bool) -> _BlockTensor:
    """The plane tensor of ``conj(D^t(k^2)_{ba})`` for ``t`` in ``labels``,
    columns ``(t, b, a)`` as in :func:`_k_matrices`; with ``keep`` it stays
    on ``kgrid``, and a smaller cutoff reads the leading columns of each
    stripe."""
    tensor = kgrid._overlap_tensors.get(two_jmax)
    if tensor is not None and tensor.labels.stop >= labels.stop:
        return tensor.columns(labels)
    col_delta = np.concatenate([_label_deltas(t) for t in labels])
    tensor = replace(_plane_tensor(
        kgrid, two_jmax, _squared_factor(kgrid, labels), col_delta), labels=labels)
    if keep:
        kgrid._overlap_tensors.clear()
        kgrid._overlap_tensors[two_jmax] = tensor
    return tensor


def _label_tensors(kgrid, two_jmax: int, two_jsum: int):
    """``(labels, overlap tensor)`` for ``t <= two_jsum`` in runs of labels
    whose blocks fit in ``_TENSOR_BYTES`` (at least one label), kept on
    ``kgrid`` if one run holds all; drop each before asking for the next."""
    splits = _runs([_label_entries(two_jmax, t) for t in range(two_jsum + 1)])
    for labels in map(range, splits[:-1], splits[1:]):
        yield labels, _overlap_tensor(kgrid, two_jmax, labels, keep=len(splits) == 2)


def _traced_kernels(rho, gs, tensor: _BlockTensor, two_jmax: int, fold=False, dg=None):
    """``R(g) @ T`` by the blocks of ``T``, with ``R[g, (alpha, beta)] =
    sum_s w_s u_s,alpha(g) v_s,beta(g)`` formed once per chunk of group
    nodes, a chunk of rows at a time so that the few ``(g, pair)`` arrays
    alive at once stay within ``_PAIR_BYTES``.  Each row block of ``R``
    meets its tensor block, into the compact columns of ``T`` as rows, block
    ``i`` at ``spans[i]``: shape ``(len(compact[0]), G)``.  ``fold`` sums the
    frequencies, ``f = 0`` at half weight, so that each stripe of ``R``
    meets its stripe, into the columns of ``T`` as rows: shape
    ``(n_columns, G)``.  Frequency ``-f`` being the adjoint of ``f``, that
    plus its adjoint (:func:`_add_adjoint`) is ``R(g) @ T`` over every pair.
    ``dg`` holds ``D^t(gs)`` for ``t <= two_jmax``; without it each chunk
    builds its own."""
    ia, ib, starts, freq, _ = _pair_rows(two_jmax)
    if fold:
        lo, hi, data, dest = tensor.lo, tensor.hi, tensor.data, tensor.cols
        weight = np.repeat(np.where(freq == 0, 0.5, 1.0), np.diff(starts))[:, None]
        out = np.zeros((tensor.n_columns, len(gs)), dtype=complex)
    else:
        blocks = tensor.blocks
        lo, hi, data, dest = blocks.lo, blocks.hi, blocks.data, tensor.spans
        out = np.zeros((dest[-1].stop, len(gs)), dtype=complex)
    for sl in _chunks(len(gs)):
        if dg is None:
            d = [irreps.dmatrix(t, gs[sl]) for t in range(two_jmax + 1)]
        else:
            d = [x[sl] for x in dg]
        coefficients = [
            (w, *(x.T.copy() for x in _coefficients(state, d, two_jmax)))
            for w, state in zip(rho.weights, rho.states)
        ]
        step = max(1, _PAIR_BYTES // (64 * (sl.stop - sl.start)))
        for rows in _chunks(len(ia), step):
            r = sum(w * u[ia[rows]] * v[ib[rows]] for w, u, v in coefficients)
            if fold:
                r *= weight[rows]
            r = r.view(float)  # the real blocks meet Re and Im at once
            for i, here, there in _meet(lo, hi, rows):
                out[dest[i], sl] += (data[i][there].T @ r[here]).view(complex)
    return out


def _add_adjoint(x: np.ndarray, d: int) -> np.ndarray:
    """``X + X^dagger`` for the ``d x d`` block ``X`` of each column of ``x``,
    shape ``(d, d, columns)``."""
    x = x.reshape(d, d, -1)
    return x + np.conj(x.transpose(1, 0, 2))


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
    def pair_factor(sl):
        cdk = np.conj(irreps.dmatrix(two_j, kgrid.nodes[:: kgrid.n_phi][sl]))
        return np.einsum("kna,kbq->kanbq", cdk, cdk).reshape(len(cdk), -1)[:, cols]

    delta = np.subtract.outer(*[irreps.two_m_values(two_j)] * 2)
    col_delta = np.add.outer(delta.T, delta).ravel()
    x = np.empty((dim**4, len(gs)), dtype=complex)
    splits = _runs(_block_entries(band, col_delta))
    for cols in map(slice, splits[:-1], splits[1:]):
        tensor = _plane_tensor(kgrid, band, pair_factor, col_delta[cols])
        x[cols] = _traced_kernels(rho, gs, tensor, band, fold=True)
        del tensor  # before the next block is built
    x = _add_adjoint(x, dim * dim)
    dgj = irreps.dmatrix(two_j, gs)
    return np.einsum(
        "gma,anbqg,gpb->gmnpq", (two_j + 1.0) * dgj, x.reshape((dim,) * 4 + (-1,)),
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
    y_t = (two_j + 1.0) * _add_adjoint(x, two_j + 1).transpose(2, 0, 1)
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
    label's traced kernel ``y[(t, b, a), g]`` contracted with ``D^t(r)``.
    """
    band = rho.two_jmax
    out = np.empty((len(gs), two_jsum + 1), dtype=complex)
    for labels, tensor in _label_tensors(kgrid, band, two_jsum):
        dims = np.arange(labels.start + 1, labels.stop + 1)
        for sl in _chunks(len(gs)):
            y = _traced_kernels(rho, gs[sl], tensor, band, fold=True)
            for d, x in zip(dims, np.split(y, np.cumsum(dims**2)[:-1])):
                dr = irreps.dmatrix(d - 1, r)
                out[sl, d - 1] = d * np.einsum("bag,ba->g", _add_adjoint(x, d), dr)
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


def _label_terms(wg, y1, y2, tensor: _BlockTensor, labels: range):
    """``(2J+1) sum_g w_g Re tr(V_1 V_2)`` for ``2J`` in ``labels``, from the
    compact columns of :func:`_traced_kernels`.  ``V_2`` is Hermitian, the
    hemisphere nodes being closed under inversion, so the trace is ``sum
    V_1 conj(V_2)``, and frequency ``-f`` is the conjugate transpose of
    ``f``: ``f > 0`` counts twice."""
    label, twice = tensor.compact
    terms = (y1.view(float) * y2.view(float)) @ np.repeat(wg, 2)
    dims = np.arange(labels.start + 1, labels.stop + 1)
    return np.bincount(label, terms * twice, minlength=len(dims)) * dims


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
    ``|f_1 + f_2| <= 4 exactness_degree < n_gamma``).  ``D^t`` on that
    plane is kept on ``ggrid``.  A tensor whose U(1) blocks fit in
    ``_TENSOR_BYTES`` is kept on ``kgrid``; a larger one is built in runs of
    whole labels, each contracted and dropped.
    """
    rho1, rho2 = as_ensemble(rho1), as_ensemble(rho2)
    if variant not in ("left", "right"):
        raise ValueError(f"variant must be 'left' or 'right', got {variant!r}")
    ggrid._require_band(rho1.two_jmax + rho2.two_jmax, "overlap")
    band = max(rho1.two_jmax, rho2.two_jmax)
    _require_kgrid(band, two_jsum, kgrid)
    plane, dg = ggrid.nodes[:: ggrid.n_gamma], _plane_dmatrices(ggrid, band)
    wg = ggrid.weights.reshape(-1, ggrid.n_gamma).sum(axis=1)
    increments = np.empty(two_jsum + 1)
    for labels, tensor in _label_tensors(kgrid, band, two_jsum):
        y1, y2 = (_traced_kernels(r, plane, tensor, band, dg=dg) for r in (rho1, rho2))
        increments[labels.start : labels.stop] = _label_terms(wg, y1, y2, tensor, labels)
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

