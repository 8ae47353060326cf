"""Training losses with hand-derived gradients.

Everything here is checked against central finite differences in the
test suite, so the conventions are pinned down precisely:

* cosine similarity with a zero-norm operand is 0.0 with zero gradient
  (except where a contract says zero norms are an error);
* hinge losses use subgradient 0 when exactly at the boundary, i.e.
  updates happen only for strictly positive loss terms.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class NonFiniteError(ArithmeticError):
    """A loss or gradient stopped being finite."""


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


# ---------------------------------------------------------------------------
# Triplet margin loss on euclidean distances


def triplet_loss_grad_batch(
    dq: np.ndarray, dp: np.ndarray, dn: np.ndarray, margin: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Triplet losses and gradients of every row of three (n, dim) matrices in one pass.

    Returns the (n,) losses and the gradients w.r.t. the three inputs. At a
    zero distance the norm is not differentiable; that branch contributes a
    zero (sub)gradient, as does an inactive hinge. Each row rounds like a
    per-row ``np.linalg.norm`` loop: a norm is one BLAS ddot per row
    (``np.vecdot``) and the gradients add their unit vectors to zeros in
    that loop's order.
    """
    for name, v in (("query", dq), ("positive", dp), ("negative", dn)):
        if not np.isfinite(v).all():
            raise NonFiniteError(f"non-finite {name} vector")
    diff_p, diff_n = dq - dp, dq - dn
    norm_p = np.sqrt(np.vecdot(diff_p, diff_p))
    norm_n = np.sqrt(np.vecdot(diff_n, diff_n))
    value = norm_p - norm_n + margin
    loss = np.where(value < 0.0, 0.0, value)  # max(value, 0.0) row by row
    active = loss > 0.0
    unit_p = np.divide(diff_p, norm_p[:, None], out=np.zeros_like(diff_p),
                       where=(active & (norm_p > 0.0))[:, None])
    unit_n = np.divide(diff_n, norm_n[:, None], out=np.zeros_like(diff_n),
                       where=(active & (norm_n > 0.0))[:, None])
    return loss, 0.0 + unit_p - unit_n, 0.0 - unit_p, 0.0 + unit_n


# ---------------------------------------------------------------------------
# Multiple negatives ranking loss (scaled-cosine softmax over in-batch docs)


def mnr_loss_grad(
    queries: np.ndarray, docs: np.ndarray, scale: float = 20.0
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean over rows of -log softmax(scale * cos(q_i, d_j)) at j == i, plus the
    gradients w.r.t. ``queries`` and ``docs``.

    Row i of ``docs`` is query i's positive and every other row, including
    any extra appended negative rows, serves as an in-batch negative.
    Zero-norm rows are an error naming the row.
    """
    q = np.asarray(queries, dtype=np.float64)
    d = np.asarray(docs, dtype=np.float64)
    if q.ndim != 2 or d.ndim != 2 or q.shape[1] != d.shape[1]:
        raise ValueError(f"bad shapes: queries {q.shape}, docs {d.shape}")
    n = q.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if d.shape[0] < n:
        raise ValueError(f"need at least {n} doc rows, got {d.shape[0]}")
    # A row of norm above ~1.3e154 overflows its squares: its norm reads inf and its unit
    # vector zero, so it takes no gradient, and the float32 check of the trained table reports it.
    with np.errstate(over="ignore"):
        qn = np.linalg.norm(q, axis=1)
        dn = np.linalg.norm(d, axis=1)
    for name, norms in (("query", qn), ("doc", dn)):
        bad = np.nonzero(norms == 0.0)[0]
        if bad.size:
            raise ValueError(f"zero-norm {name} row {int(bad[0])}")
    qu = q / qn[:, None]
    du = d / dn[:, None]
    cos = qu @ du.T  # (n, m)
    z = scale * cos
    z_shift = z - z.max(axis=1, keepdims=True)
    log_probs = z_shift - np.log(np.exp(z_shift).sum(axis=1, keepdims=True))
    loss = float(-log_probs[np.arange(n), np.arange(n)].mean())

    # d loss / d z = (softmax - target) / n, chained through the cosine.
    g_z = np.exp(log_probs)
    g_z[np.arange(n), np.arange(n)] -= 1.0
    g_z *= scale / n
    row_dot = (g_z * cos).sum(axis=1)  # sum_j g_ij cos_ij
    g_q = (g_z @ du - row_dot[:, None] * qu) / qn[:, None]
    col_dot = (g_z * cos).sum(axis=0)
    g_d = (g_z.T @ qu - col_dot[:, None] * du) / dn[:, None]
    return loss, g_q, g_d


# ---------------------------------------------------------------------------
# Margin ranking loss over translated-cosine edge scores


class EdgeScores(NamedTuple):
    """Translated-cosine scores of n edges, each against k negatives."""

    na: np.ndarray  # (n,) norms of a = src + rel
    nd: np.ndarray  # (n,) norms of dst
    s_pos: np.ndarray  # (n,) cos(a, dst)
    norms: np.ndarray  # (n, k) norms of the negatives
    s_neg: np.ndarray  # (n, k) cos(a, negative)
    terms: np.ndarray  # (n, k) hinge terms (margin - s_pos) + s_neg


def cosines(dots: np.ndarray, n1: np.ndarray, n2: np.ndarray) -> np.ndarray:
    """``dots / (n1 * n2)``, the norms broadcast against the dot products, with 0.0 where
    either norm is exactly 0.0. The quotient is formed plainly and only those entries are
    set afterwards, so a NaN norm still gives a NaN cosine. When every norm product is
    above 0.0 no norm is 0.0, so the quotient is returned without that pass."""
    with np.errstate(divide="ignore", invalid="ignore"):  # zero norms, set to 0.0 below
        products = n1 * n2
        out = dots / products
    if 0.0 < products.min(initial=np.inf):  # False for a 0.0 or NaN product
        return out
    for norms in (n1, n2):
        zero = norms == 0.0
        if zero.any():
            out[np.broadcast_to(zero, out.shape)] = 0.0
    return out


def edge_scores(a: np.ndarray, dst: np.ndarray, negs: np.ndarray, margin, nd: np.ndarray,
                norms: np.ndarray) -> EdgeScores:
    """Score n edges in one array pass: ``a = src + rel`` and ``dst`` are (n, dim),
    ``negs`` is (n, k, dim) and ``margin`` a float or one per edge. ``nd`` (n,) and
    ``norms`` (n, k) are the norms of ``dst`` and ``negs``, ``sqrt(vecdot(v, v))`` of
    each row, which a caller holds for its table rows.

    Each row dot product and norm is one BLAS ddot (``np.vecdot``), so a
    row rounds exactly like ``np.dot`` and ``np.linalg.norm`` on that
    edge alone, whatever else is in the batch. A zero-norm operand scores 0
    (``cosines``).
    """
    na = np.sqrt(np.vecdot(a, a))
    s_pos = cosines(np.vecdot(a, dst), na, nd)
    s_neg = cosines(np.vecdot(negs, a[:, None, :]), na[:, None], norms)
    terms = (margin - s_pos)[:, None] + s_neg
    return EdgeScores(na, nd, s_pos, norms, s_neg, terms)


def edge_steps(
    a: np.ndarray, dst: np.ndarray, live: np.ndarray, sc: EdgeScores
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mean hinges max(0, terms) of n edges and their gradients, from the edges'
    ``edge_scores`` rows ``sc``, their vectors ``a`` and ``dst`` (n, dim) and
    the (m, dim) vectors ``live`` of their m live pairs' negatives.

    The live pairs are the (edge, negative) pairs whose term is positive
    (``sc.terms > 0``), in row-major (edge, negative) order, so ``live`` is
    ``negs[sc.terms > 0]``, which a caller may gather from its table rather
    than from the scored (n, k, dim) block. Only the e active edges, those
    with a live pair, and the live pairs have a gradient. Returns (loss (n,),
    g_a (e, dim), g_dst (e, dim), g_negs (m, dim)): the active edges' rows
    in edge order and the live pairs' negatives' rows in pair order. Every
    other edge has loss and gradients zero, and every other negative's
    gradient is zero; none of them is formed. A zero-norm operand has zero
    gradient: the quotients are formed plainly, and the rows of a norm that
    is exactly 0.0 are then set to 0.0.

    Each row equals a per-negative cosine-gradient loop over that edge
    alone bit for bit: products and quotients keep the loop's operand
    order, the loss adds the terms one by one by ``cumsum`` over the (n, k)
    terms, and ``g_a`` and ``g_dst`` add the live pairs' steps in order by
    ``rows_at`` (``np.add.reduce`` would sum pairwise when dim == 1). The
    loop adds a +0.0 for every other negative too, and such an add changes
    at most the sign of a zero partial sum; the final ``+ 0.0`` makes every
    zero sum +0.0, as the loop's are.
    """
    k = sc.terms.shape[1]
    on = sc.terms > 0.0
    loss = np.cumsum(np.where(on, sc.terms, 0.0), axis=1)[:, -1] / k
    if not np.isfinite(loss).all():
        raise NonFiniteError("non-finite ranking loss")

    n_on = on.sum(axis=1)
    act = n_on.nonzero()[0]
    at = np.repeat(np.arange(act.size), n_on[act])  # each live pair's active edge
    a, dst, na, nd, s_pos = (v[act] for v in (a, dst, sc.na[:, None], sc.nd[:, None],
                                              sc.s_pos[:, None]))
    nb, s_neg = sc.norms[on][:, None], sc.s_neg[on][:, None]
    nn, aa, ab = na * nd, na * na, na[at] * nb
    with np.errstate(divide="ignore", invalid="ignore"):  # zero norms, set to 0.0 below
        g_a_pos = dst / nn - s_pos * a / aa
        g_dst_pos = a / nn - s_pos * dst / (nd * nd)
        # The live pairs' (m, dim) terms, formed in place: one temporary of that size.
        a_e = a[at]
        step = live / ab  # the a-gradient of cos(a, b)
        tmp = s_neg * a_e
        tmp /= aa[at]
        step -= tmp
        g_negs = np.divide(a_e, ab, out=a_e)  # the negative's gradient
        np.multiply(s_neg, live, out=tmp)
        tmp /= nb * nb
        g_negs -= tmp
        del tmp
    if not nn.all():  # a zero norm, or a product that underflows
        zero = ((na == 0.0) | (nd == 0.0))[:, 0]
        g_a_pos[zero] = g_dst_pos[zero] = 0.0
    if not ab.all():
        zero = ((na[at] == 0.0) | (nb == 0.0))[:, 0]
        step[zero] = g_negs[zero] = 0.0
    step -= g_a_pos[at]
    step /= k
    g_a = np.zeros(a.shape)
    rows_at(np.add, g_a, at, step)
    g_a += 0.0
    del step
    g_dst = np.zeros(dst.shape)
    rows_at(np.add, g_dst, at, -(g_dst_pos / k)[at])
    g_dst += 0.0
    g_negs /= k
    return loss, g_a, g_dst, g_negs


# Flat-index entries per ufunc.at call in rows_at: 16K int64 entries, 128 KB.
AT_CHUNK = 16384


def rows_at(ufunc: np.ufunc, table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """``ufunc.at(table, rows, values)`` for a C-contiguous (r, dim) ``table`` and
    (len(rows), dim) ``values``: the same updates in the same order, each row's in
    the order of ``rows``, through ``ufunc.at``'s faster path over the flat table.
    The flat index is built for about ``AT_CHUNK`` entries of rows at a time and
    the chunks apply in order, so the updates keep their order and their bits."""
    dim = table.shape[1]
    flat, cols = np.reshape(table, -1, copy=False), np.arange(dim)
    chunk = max(1, AT_CHUNK // dim)
    for lo in range(0, rows.size, chunk):
        ufunc.at(flat, (rows[lo : lo + chunk, None] * dim + cols).ravel(),
                 values[lo : lo + chunk].ravel())
