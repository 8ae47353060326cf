"""Training losses with hand-derived gradients.

Everything here is checked against central finite differences in the
test suite, so the conventions are pinned down precisely:

* cosine similarity with a zero-norm operand is 0.0 with zero gradient
  (except where a contract says zero norms are an error);
* hinge losses use subgradient 0 when exactly at the boundary, i.e.
  updates happen only for strictly positive loss terms.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


class NonFiniteError(ArithmeticError):
    """A loss or gradient stopped being finite."""


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm of a 1-d float64 vector, sqrt(v.dot(v)), without its dispatch cost."""
    return math.sqrt(v.dot(v))


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def _cosine_grads(a: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """(cos, d cos/d a, d cos/d b); zero vectors give zero everywhere."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        z = np.zeros_like(a, dtype=np.float64)
        return 0.0, z, z.copy()
    cos = float(np.dot(a, b) / (na * nb))
    ga = b / (na * nb) - cos * a / (na * na)
    gb = a / (na * nb) - cos * b / (nb * nb)
    return cos, ga, gb


# ---------------------------------------------------------------------------
# Triplet margin loss on euclidean distances


def triplet_loss(dq: np.ndarray, dp: np.ndarray, dn: np.ndarray, margin: float = 1.0) -> float:
    """max(||dq-dp|| - ||dq-dn|| + margin, 0) over equal-dimension vectors."""
    return triplet_loss_grad(dq, dp, dn, margin)[0]


def triplet_loss_grad(
    dq: np.ndarray, dp: np.ndarray, dn: np.ndarray, margin: float = 1.0
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """Loss and gradients w.r.t. the three input vectors.

    At a zero distance the norm is not differentiable; that branch
    contributes a zero (sub)gradient, as does an inactive hinge.
    """
    dq, dp, dn = (np.asarray(v, dtype=np.float64) for v in (dq, dp, dn))
    if not (dq.shape == dp.shape == dn.shape):
        raise ValueError(f"dimension mismatch: {dq.shape}, {dp.shape}, {dn.shape}")
    loss, gq, gp, gn = triplet_loss_grad_batch(dq[None], dp[None], dn[None], margin)
    return float(loss[0]), gq[0], gp[0], gn[0]


def triplet_loss_grad_batch(
    dq: np.ndarray, dp: np.ndarray, dn: np.ndarray, margin: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Triplet losses and gradients of every row of three (n, dim) matrices in one pass.

    Returns the (n,) losses and the three gradient matrices. Each row
    rounds like a per-row ``np.linalg.norm`` loop: a norm is one BLAS
    ddot per row (``np.vecdot``) and the gradients add their unit
    vectors to zeros in that loop's order.
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


def _mnr_core(
    queries: np.ndarray, docs: np.ndarray, scale: float
) -> tuple[float, np.ndarray, np.ndarray]:
    q = np.asarray(queries, dtype=np.float64)
    d = np.asarray(docs, dtype=np.float64)
    if q.ndim != 2 or d.ndim != 2 or q.shape[1] != d.shape[1]:
        raise ValueError(f"bad shapes: queries {q.shape}, docs {d.shape}")
    n = q.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if d.shape[0] < n:
        raise ValueError(f"need at least {n} doc rows, got {d.shape[0]}")
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


def mnr_loss(queries: np.ndarray, docs: np.ndarray, scale: float = 20.0) -> float:
    """Mean over rows of -log softmax(scale * cos(q_i, d_j)) at j == i.

    ``queries`` and ``docs`` are row-aligned (n, dim) matrices; row i of
    ``docs`` is query i's positive and every other row serves as an
    in-batch negative. Zero-norm rows are an error naming the row.
    """
    q = np.asarray(queries, dtype=np.float64)
    d = np.asarray(docs, dtype=np.float64)
    if q.shape != d.shape:
        raise ValueError(f"shape mismatch: queries {q.shape}, docs {d.shape}")
    loss, _, _ = _mnr_core(q, d, scale)
    return loss


def mnr_loss_grad(
    queries: np.ndarray, docs: np.ndarray, scale: float = 20.0
) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss plus gradients; ``docs`` may carry extra appended negative rows."""
    return _mnr_core(queries, docs, scale)


# ---------------------------------------------------------------------------
# Margin ranking loss over translated-cosine edge scores


def edge_ranking_loss_grad(
    src: np.ndarray,
    rel: np.ndarray,
    dst: np.ndarray,
    neg_dsts: np.ndarray,
    margin: float,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Mean hinge max(0, margin - s(pos) + s(neg)) over the negative rows.

    s(x) = cos(src + rel, x). Returns (loss, g_src, g_rel, g_dst,
    g_neg_dsts); the src and rel gradients coincide because the score
    depends on them only through their sum.

    All negatives are scored in one array pass that rounds exactly like
    a per-negative ``_cosine_grads`` loop: each row dot product and norm
    is one BLAS ddot (``np.vecdot``), every product and quotient keeps
    that loop's operand order, and the sums run over the active rows in
    negative order.
    """
    src = np.asarray(src, dtype=np.float64)
    rel = np.asarray(rel, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    negs = np.atleast_2d(np.asarray(neg_dsts, dtype=np.float64))
    if negs.shape[0] == 0:
        raise ValueError("need at least one negative")
    a = src + rel
    m = negs.shape[0]
    na, nd = _norm(a), _norm(dst)
    s_pos = float(a.dot(dst) / (na * nd)) if na != 0.0 and nd != 0.0 else 0.0
    norms = np.sqrt(np.vecdot(negs, negs))
    # A zero-norm operand scores 0 with zero gradient, as in _cosine_grads.
    live = (norms != 0.0) & (na != 0.0)
    denom = na * norms
    s_neg = np.divide(np.vecdot(negs, a), denom, out=np.zeros(m), where=live)
    terms = (margin - s_pos) + s_neg
    g_a = np.zeros(a.shape)
    g_dst = np.zeros(dst.shape)
    g_negs = np.zeros(negs.shape)
    act = (terms > 0.0).nonzero()[0]
    if act.size == 0:
        return 0.0, g_a.copy(), g_a, g_dst, g_negs

    loss = 0.0
    for term in terms[act].tolist():
        loss += term
    loss /= m
    if not np.isfinite(loss):
        raise NonFiniteError("non-finite ranking loss")

    _, g_a_pos, g_dst_pos = _cosine_grads(a, dst)
    g_a_neg = np.zeros((act.size, a.size))
    g_neg = np.zeros((act.size, a.size))
    sel = live[act]
    rows = act[sel]
    b = negs[rows]
    cos = s_neg[rows][:, None]
    nab = denom[rows][:, None]
    nb = norms[rows][:, None]
    g_a_neg[sel] = b / nab - cos * a / (na * na)
    g_neg[sel] = a / nab - cos * b / (nb * nb)
    # Row by row in negative order; np.add.reduce would sum pairwise when dim == 1.
    for g_row in (g_a_neg - g_a_pos) / m:
        g_a += g_row
        g_dst -= g_dst_pos / m
    g_negs[act] = g_neg / m
    return float(loss), g_a.copy(), g_a, g_dst, g_negs


# ---------------------------------------------------------------------------
# Gradient verification


def finite_diff_check(
    loss_and_grad: Callable[[np.ndarray], tuple[float, np.ndarray]],
    params: np.ndarray,
    probe_count: int = 32,
    eps: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Probes ``probe_count`` random coordinates of ``params`` (all of them
    when the vector is small). Callers are responsible for keeping the
    probes away from hinge boundaries, where the loss is not
    differentiable.
    """
    params = np.asarray(params, dtype=np.float64)
    flat = params.ravel()
    _, grad = loss_and_grad(params)
    grad = np.asarray(grad, dtype=np.float64).ravel()
    if grad.shape != flat.shape:
        raise ValueError(f"gradient shape {grad.shape} != params shape {flat.shape}")

    rng = np.random.default_rng(seed)
    if probe_count >= flat.size:
        coords = np.arange(flat.size)
    else:
        coords = rng.choice(flat.size, size=probe_count, replace=False)

    worst = 0.0
    for c in coords:
        bumped = flat.copy()
        bumped[c] += eps
        hi, _ = loss_and_grad(bumped.reshape(params.shape))
        bumped[c] -= 2 * eps
        lo, _ = loss_and_grad(bumped.reshape(params.shape))
        numeric = (hi - lo) / (2 * eps)
        denom = max(abs(grad[c]), abs(numeric), 1e-8)
        worst = max(worst, abs(grad[c] - numeric) / denom)
    return worst
