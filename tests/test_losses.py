import math
import warnings

import numpy as np
import pytest

from oracles import (
    finite_diff_check,
    oracle_cosine,
    oracle_edge_ranking_loss_grad,
    oracle_masked_cosines,
    oracle_mnr,
    oracle_np_cosine,
    oracle_triplet_loss_grad,
)
from plantsearch import losses
from plantsearch.losses import (
    NonFiniteError,
    cosine,
    cosines,
    edge_scores,
    edge_steps,
    mnr_loss_grad,
    rows_at,
    triplet_loss_grad_batch,
)


def one_triplet(dq, dp, dn, margin):
    """``triplet_loss_grad_batch`` at n = 1: (loss, g_q, g_p, g_n) of one triplet."""
    loss, gq, gp, gn = triplet_loss_grad_batch(dq[None], dp[None], dn[None], margin)
    return float(loss[0]), gq[0], gp[0], gn[0]


def dense_negs(g_negs, terms):
    """``edge_steps``'s live-pair rows spread into (n, k, dim) zeros: one row per
    (edge, negative), +0.0 where the term is not positive."""
    out = np.zeros(terms.shape + g_negs.shape[1:])
    out[terms > 0.0] = g_negs
    return out


def dense_edges(g, terms):
    """``edge_steps``'s active-edge rows spread into (n, dim) zeros: +0.0 for an edge
    with no positive term."""
    out = np.zeros((terms.shape[0],) + g.shape[1:])
    out[(terms > 0.0).any(axis=1)] = g
    return out


def scored(a, dst, negs, margin):
    """``edge_scores`` with the destination and negative norms that training holds, one
    ``sqrt(vecdot(v, v))`` per row."""
    return edge_scores(a, dst, negs, margin, np.sqrt(np.vecdot(dst, dst)),
                       np.sqrt(np.vecdot(negs, negs)))


def one_edge(src, rel, dst, negs, margin):
    """``edge_scores`` then ``edge_steps`` on one edge: (loss, g_a, g_dst, g_negs), the
    last (k, dim) with zero rows for the negatives that are not live.

    The score sees src and rel only through a = src + rel, so g_a is the
    gradient w.r.t. each of them.
    """
    a = src + rel
    sc = scored(a[None], dst[None], negs[None], margin)
    loss, g_a, g_dst, g_negs = edge_steps(a[None], dst[None], negs[None][sc.terms > 0.0], sc)
    return (float(loss[0]), dense_edges(g_a, sc.terms)[0], dense_edges(g_dst, sc.terms)[0],
            dense_negs(g_negs, sc.terms)[0])

# Hand-computed: (query, positive, negative, margin, expected loss).
# Distances use 3-4-5 style vectors so every expectation is exact.
TRIPLET_FIXTURES = [
    # inactive hinge: 5 - 10 + 1 < 0
    ([0, 0], [3, 4], [6, 8], 1.0, 0.0),
    # active hinge: 5 - 10 + 6 = 1
    ([0, 0], [3, 4], [6, 8], 6.0, 1.0),
    # equal distances: loss is exactly the margin (sample-induced symmetry)
    ([0, 0], [1, 0], [0, 1], 1.0, 1.0),
    ([0, 0], [1, 1], [1, -1], 2.5, 2.5),
    # all three vectors coincide: both distances zero, loss = margin
    ([2, 2], [2, 2], [2, 2], 0.5, 0.5),
    # hinge lands exactly on zero: 0 - 1 + 1
    ([1, 2, 3], [1, 2, 3], [1, 2, 4], 1.0, 0.0),
    # another exact-zero boundary: 0 - 5 + 5
    ([3, 4], [3, 4], [0, 0], 5.0, 0.0),
    # 1-d: |0-2| - |0-1| + 1 = 2
    ([0], [2], [1], 1.0, 2.0),
    # positive farther than negative, margin 0: 5 - 0 + 0
    ([1, 1], [4, 5], [1, 1], 0.0, 5.0),
    # 2 - 3 + 1.5 = 0.5
    ([2, 0], [0, 0], [-1, 0], 1.5, 0.5),
    # 13 - 13 + 3 = 3 (5-12-13 triangles)
    ([0, 0], [5, 12], [12, 5], 3.0, 3.0),
    # negative margin is legal input: 5 - 10 - 1 < 0
    ([0, 0], [3, 4], [6, 8], -1.0, 0.0),
]


def test_triplet_loss_hand_fixtures():
    assert len(TRIPLET_FIXTURES) >= 10
    for dq, dp, dn, margin, expected in TRIPLET_FIXTURES:
        got = one_triplet(np.array(dq, float), np.array(dp, float), np.array(dn, float), margin)[0]
        assert got == pytest.approx(expected, abs=1e-12), (dq, dp, dn, margin)


def test_triplet_loss_non_finite():
    with pytest.raises(NonFiniteError):
        one_triplet(np.array([np.nan, 0.0]), np.zeros(2), np.zeros(2), 1.0)
    with pytest.raises(NonFiniteError):
        one_triplet(np.zeros(2), np.array([np.inf, 0.0]), np.zeros(2), 1.0)


def test_triplet_grad_zero_when_hinge_inactive():
    loss, gq, gp, gn = one_triplet(
        np.array([0.0, 0.0]), np.array([3.0, 4.0]), np.array([6.0, 8.0]), 1.0
    )
    assert loss == 0.0
    assert not gq.any() and not gp.any() and not gn.any()


def test_triplet_loss_grad_batch_bitwise_equals_per_row_loop():
    rng = np.random.default_rng(17)
    seen = {"zero_p": 0, "zero_n": 0, "inactive": 0, "term_zero": 0, "active": 0}
    cases = [(np.array([dq], float), np.array([dp], float), np.array([dn], float), margin)
             for dq, dp, dn, margin, _ in TRIPLET_FIXTURES]
    for trial in range(300):
        n, dim = int(rng.integers(1, 20)), int(rng.choice([1, 2, 3, 16, 64]))
        margin = float(rng.choice([0.1, 1.0, 2.5]))
        dq, dp, dn = (rng.normal(size=(n, dim)) * rng.choice([0.1, 1.0]) for _ in range(3))
        dp[0] = dq[0]  # zero positive distance
        dn[n // 2] = dq[n // 2]  # zero negative distance
        dq[-1], dp[-1], dn[-1] = 0.0, 0.0, 0.0
        dn[-1, 0] = margin  # 0 - margin + margin: the hinge term is exactly 0
        cases.append((dq, dp, dn, margin))
    for dq, dp, dn, margin in cases:
        losses, gq, gp, gn = triplet_loss_grad_batch(dq, dp, dn, margin)
        assert losses.shape == (len(dq),)
        for i in range(len(dq)):
            want = oracle_triplet_loss_grad(dq[i], dp[i], dn[i], margin)
            one = one_triplet(dq[i], dp[i], dn[i], margin)
            assert losses[i] == want[0] == one[0]
            for got, w, o in zip((gq[i], gp[i], gn[i]), want[1:], one[1:]):
                assert got.tobytes() == w.tobytes() == o.tobytes(), (dq[i], dp[i], dn[i], margin)
            seen["zero_p"] += not (dq[i] - dp[i]).any()
            seen["zero_n"] += not (dq[i] - dn[i]).any()
            seen["inactive"] += want[0] == 0.0
            seen["active"] += want[0] > 0.0
            term = np.linalg.norm(dq[i] - dp[i]) - np.linalg.norm(dq[i] - dn[i]) + margin
            seen["term_zero"] += term == 0.0
    assert all(n > 0 for n in seen.values()), seen
    with pytest.raises(NonFiniteError):
        triplet_loss_grad_batch(np.zeros((2, 2)), np.full((2, 2), np.inf), np.zeros((2, 2)))


def test_triplet_grad_finite_difference():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 20:
        dq, dp, dn = rng.normal(size=(3, 5))
        margin = float(rng.uniform(0.5, 2.0))
        value = (
            np.linalg.norm(dq - dp) - np.linalg.norm(dq - dn) + margin
        )
        if abs(value) < 1e-2:  # keep probes away from the hinge kink
            continue
        packed = np.concatenate([dq, dp, dn])

        def f(x):
            q, p, n = x[:5], x[5:10], x[10:]
            loss, gq, gp, gn = one_triplet(q, p, n, margin)
            return loss, np.concatenate([gq, gp, gn])

        assert finite_diff_check(f, packed, probe_count=15, seed=checked) < 1e-6
        checked += 1


def test_cosine_hand_values():
    assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert cosine(np.array([2.0, 0.0]), np.array([5.0, 0.0])) == pytest.approx(1.0, abs=1e-15)
    assert cosine(np.array([1.0, 0.0]), np.array([-3.0, 0.0])) == pytest.approx(-1.0, abs=1e-15)
    assert cosine(np.zeros(3), np.ones(3)) == 0.0
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b = rng.normal(size=(2, 4))
        assert cosine(a, b) == pytest.approx(oracle_cosine(a, b), abs=1e-12)


# (dots, n1, n2) shapes of the call sites: a ranking of 3 queries, pairs or edge positives,
# edge negatives, and an empty batch
COSINE_SHAPES = [((3, 500), (1, 500), (3, 1)), ((64,), (64,), (64,)),
                 ((64, 8), (64, 1), (64, 8)), ((0, 8), (0, 1), (0, 8))]


@pytest.mark.parametrize("shapes", COSINE_SHAPES)
def test_cosines_of_nonzero_norms_equal_the_masked_quotient(shapes):
    """Norms whose products are all above 0.0 give the former masked path's values bit for
    bit, with no warning."""
    rng = np.random.default_rng(len(shapes[0]))
    for scale in (1e-3, 1.0, 1e150):
        dots = rng.normal(size=shapes[0]) * scale
        n1, n2 = (rng.random(size=s) * scale + 1e-300 for s in shapes[1:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cosines(dots, n1, n2)
        assert got.shape == shapes[0]
        assert got.tobytes() == oracle_masked_cosines(dots, n1, n2).tobytes()


@pytest.mark.parametrize("norm", [0.0, np.nan, np.inf, 1e-200])
def test_cosines_of_a_zero_nan_inf_or_underflowing_norm_keep_the_masked_values(norm):
    """A norm of 0.0, NaN or inf, alone or beside a 0.0 norm, and two nonzero norms whose
    product underflows to 0.0 (1e-200 * 1e-200), give the former masked path's values and
    raise no warning: a 0.0 norm scores 0.0, a NaN norm NaN, and an underflowed product
    divides to a signed inf."""
    dots = np.array([[0.5, -0.5, 0.0, 2.0], [1.0, -1.0, 3.0, 0.0]])
    n1 = np.array([1.0, 2.0, norm, norm])
    for n2 in (np.array([[4.0], [1e-200]]), np.array([[4.0], [0.0]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cosines(dots, n1, n2)
        assert got.tobytes() == oracle_masked_cosines(dots, n1, n2).tobytes()
        assert (got[(n1 == 0.0) | (n2 == 0.0)] == 0.0).all()
    assert np.isinf(cosines(dots[:1, :1], np.array([1e-200]), np.array([1e-200]))).all()


def test_mnr_loss_matches_oracle():
    rng = np.random.default_rng(7)
    for trial in range(30):
        n = int(rng.integers(1, 6))
        m = n + int(rng.integers(0, 4))  # extra appended negatives
        dim = int(rng.integers(2, 6))
        q = rng.normal(size=(n, dim))
        d = rng.normal(size=(m, dim))
        scale = float(rng.uniform(1.0, 30.0))
        got = mnr_loss_grad(q, d, scale)[0]
        want = oracle_mnr(q.tolist(), d.tolist(), scale)
        assert got == pytest.approx(want, abs=1e-12), trial


def test_mnr_perfect_batch_is_small():
    # Orthogonal one-hot docs, each query equal to its doc: the diagonal
    # dominates every off-diagonal logit by the full scale.
    q = np.eye(4)
    loss = mnr_loss_grad(q, q, scale=20.0)[0]
    assert loss < math.log(1 + 3 * math.exp(-20.0)) + 1e-12


def test_mnr_errors():
    with pytest.raises(ValueError):
        mnr_loss_grad(np.zeros((0, 3)), np.zeros((0, 3)))
    with pytest.raises(ValueError):
        mnr_loss_grad(np.ones((2, 3)), np.ones((1, 3)))
    with pytest.raises(ValueError, match="zero-norm query row 1"):
        mnr_loss_grad(np.array([[1.0, 0], [0, 0]]), np.ones((2, 2)))
    with pytest.raises(ValueError, match="zero-norm doc row 0"):
        mnr_loss_grad(np.ones((2, 2)), np.array([[0.0, 0], [1, 1]]))


def test_mnr_grad_finite_difference():
    rng = np.random.default_rng(3)
    for trial in range(5):
        n, m, dim = 3, 5, 4
        q = rng.normal(size=(n, dim))
        d = rng.normal(size=(m, dim))
        packed = np.concatenate([q.ravel(), d.ravel()])

        def f(x):
            qq = x[: n * dim].reshape(n, dim)
            dd = x[n * dim :].reshape(m, dim)
            loss, gq, gd = mnr_loss_grad(qq, dd, 10.0)
            return loss, np.concatenate([gq.ravel(), gd.ravel()])

        assert finite_diff_check(f, packed, probe_count=20, seed=trial) < 1e-6


def test_edge_ranking_loss_hand_case():
    # src+rel = (1,0); dst = (1,0) -> s_pos = 1; negs (0,1) and (-1,0)
    # -> hinges max(0, 0.5 - 1 + 0) = 0 and max(0, 0.5 - 1 - 1) = 0.
    src = np.array([1.0, 0.0])
    rel = np.zeros(2)
    dst = np.array([1.0, 0.0])
    negs = np.array([[0.0, 1.0], [-1.0, 0.0]])
    loss, g_a, g_dst, g_negs = one_edge(src, rel, dst, negs, 0.5)
    assert loss == 0.0
    assert not g_a.any() and not g_negs.any()
    # margin 2.5 activates both: (2.5 - 1 + 0) + (2.5 - 1 - 1) = 1.5 + 0.5, mean 1.0
    loss2, *_ = one_edge(src, rel, dst, negs, 2.5)
    assert loss2 == pytest.approx(1.0, abs=1e-12)


def test_edge_ranking_src_rel_grads_coincide():
    # One g_a serves src and rel: central differences in either one match it.
    rng = np.random.default_rng(9)
    src, rel, dst = rng.normal(size=(3, 4))
    negs = rng.normal(size=(3, 4))

    def f(x):
        loss, g_a, _, _ = one_edge(x[:4], x[4:], dst, negs, 1.0)
        return loss, np.concatenate([g_a, g_a])

    assert finite_diff_check(f, np.concatenate([src, rel])) < 1e-6


def test_edge_ranking_grad_finite_difference():
    rng = np.random.default_rng(5)
    dim, n_negs = 4, 3
    for trial in range(5):
        src, rel, dst = rng.normal(size=(3, dim))
        negs = rng.normal(size=(n_negs, dim))
        packed = np.concatenate([src, rel, dst, negs.ravel()])

        def f(x):
            s, r, d = x[:dim], x[dim : 2 * dim], x[2 * dim : 3 * dim]
            ng = x[3 * dim :].reshape(n_negs, dim)
            loss, ga, gd, gn = one_edge(s, r, d, ng, 5.0)
            return loss, np.concatenate([ga, ga, gd, gn.ravel()])

        # margin 5 keeps every hinge active, so the loss is smooth here
        assert finite_diff_check(f, packed, probe_count=20, seed=trial) < 1e-6


def _edge_loss_case(rng, trial):
    """Random edge-loss inputs; trial % 7 in 1..5 picks a boundary case."""
    dim = int(rng.choice([1, 2, 3, 16, 64]))
    m = int(rng.integers(1, 12))
    src, rel, dst = rng.normal(size=(3, dim)) * 10.0 ** rng.uniform(-3, 3)
    negs = rng.normal(size=(m, dim)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1))
    margin = float(rng.choice([0.05, 0.1, 0.5, 1.0, 3.0]))
    case = trial % 7
    if case == 1:  # src + rel is exactly zero: every cosine is 0
        rel = -src
    elif case == 2:  # zero-norm negative rows and sometimes a zero-norm dst
        negs[rng.integers(0, m, size=max(1, m // 3))] = 0.0
        if rng.random() < 0.5:
            dst = np.zeros(dim)
    elif case == 3:  # the same negative drawn repeatedly
        negs = negs[rng.integers(0, min(m, 2), size=m)]
    elif case == 4:  # no active hinge: dst = src + rel, negatives point away
        dst = src + rel
        negs = -(src + rel) * rng.uniform(0.5, 2.0, size=(m, 1))
    elif case == 5 and dim >= 2:  # one term lands exactly on 0: 1 - 1 + 0
        src, rel, dst = np.eye(dim)[0], np.zeros(dim), np.eye(dim)[0]
        negs[0] = np.eye(dim)[1]
        margin = 1.0
    return src, rel, dst, negs, margin


def test_edge_ranking_bitwise_equals_per_negative_loop():
    rng = np.random.default_rng(31)
    seen = {"zero_a": 0, "zero_neg": 0, "inactive": 0, "term_zero": 0, "active": 0}
    groups = {}
    for trial in range(700):
        src, rel, dst, negs, margin = _edge_loss_case(rng, trial)
        got = one_edge(src, rel, dst, negs, margin)
        want = oracle_edge_ranking_loss_grad(src, rel, dst, negs, margin)
        assert got[0] == want[0], trial
        for g, w in zip((got[1], got[1], got[2], got[3]), want[1:]):
            assert g.shape == w.shape and g.tobytes() == w.tobytes(), trial
        a = src + rel
        s_pos = oracle_np_cosine(a, dst)
        seen["zero_a"] += not a.any()
        seen["zero_neg"] += not np.all(negs.any(axis=1))
        seen["inactive"] += got[0] == 0.0
        seen["active"] += got[0] > 0.0
        seen["term_zero"] += any(margin - s_pos + oracle_np_cosine(a, n) == 0.0 for n in negs)
        groups.setdefault(negs.shape, []).append((a, dst, negs, margin, want))
    assert all(n > 0 for n in seen.values()), seen

    # The same cases, grouped by (k, dim), scored in one multi-edge call and
    # stepped in one edge_steps call: every row equals the one-edge scores and
    # the per-negative loop bit for bit.
    for shape, cases in groups.items():
        a, dst, negs, margin = (np.array([c[i] for c in cases]) for i in range(4))
        batch = scored(a, dst, negs, margin)
        assert batch.terms.shape == (len(cases), shape[0])
        loss, g_a, g_dst, g_negs = edge_steps(a, dst, negs[batch.terms > 0.0], batch)
        assert g_negs.shape == ((batch.terms > 0.0).sum(), shape[1])
        assert g_a.shape == g_dst.shape == ((batch.terms > 0.0).any(axis=1).sum(), shape[1])
        g_a, g_dst = dense_edges(g_a, batch.terms), dense_edges(g_dst, batch.terms)
        g_negs = dense_negs(g_negs, batch.terms)
        for i, (_, _, _, _, want) in enumerate(cases):
            one = scored(a[i][None], dst[i][None], negs[i][None], margin[i])
            for field, w in zip(batch, one):
                assert field[i].tobytes() == w[0].tobytes(), (shape, i)
            assert loss[i] == want[0], (shape, i)
            for g, w in zip((g_a[i], g_dst[i], g_negs[i]), (want[2], want[3], want[4])):
                assert g.tobytes() == w.tobytes(), (shape, i)
    assert len(groups) > 1 and max(len(c) for c in groups.values()) > 10


def test_edge_batch_mixing_zero_norm_rows_equals_per_edge_oracle():
    """One edge_scores/edge_steps batch whose rows mix a zero a = src + rel, a zero
    destination and zero negatives with ordinary rows equals the per-negative loop row by
    row, bit for bit: a zero norm scores 0 and takes a zero gradient, and every other row
    is as if alone."""
    rng = np.random.default_rng(9)
    n, k, dim = 14, 5, 4
    src, rel, dst = rng.normal(size=(3, n, dim))
    negs = rng.normal(size=(n, k, dim))
    rel[0] = -src[0]  # zero src + rel
    dst[1] = 0.0  # zero destination
    negs[2, [0, 3]] = 0.0  # zero negatives
    rel[3], dst[3], negs[3, 1] = -src[3], 0.0, 0.0  # all three at once
    negs[5:9, 2] = 0.0
    dst[10] = 0.0
    a = src + rel
    margin = np.full(n, 0.5)
    margin[[0, 3]] = 1.0
    sc = scored(a, dst, negs, margin)
    assert sc.s_pos[[0, 1, 3]].tolist() == [0.0, 0.0, 0.0] and not sc.s_neg[0].any()
    on = sc.terms > 0.0
    assert on[0].all() and on[2, 0]  # live pairs of zero norm, with zero gradients
    loss, g_a, g_dst, g_negs = edge_steps(a, dst, negs[on], sc)
    g_a, g_dst, g_negs = dense_edges(g_a, sc.terms), dense_edges(g_dst, sc.terms), dense_negs(
        g_negs, sc.terms)
    for i in range(n):
        want = oracle_edge_ranking_loss_grad(src[i], rel[i], dst[i], negs[i], margin[i])
        assert loss[i] == want[0], i
        for g, w in zip((g_a[i], g_dst[i], g_negs[i]), (want[2], want[3], want[4])):
            assert g.tobytes() == w.tobytes(), i


def test_edge_scores_keep_a_nan_norm():
    """Only norms that are exactly 0.0 score 0: a NaN operand gives NaN scores and terms."""
    a, dst = np.ones((2, 3)), np.ones((2, 3))
    negs = np.ones((2, 2, 3))
    negs[1, 0, 2] = np.nan
    sc = scored(a, dst, negs, 0.1)
    assert np.isnan(sc.terms[1, 0]) and np.isfinite(np.delete(sc.terms.ravel(), 2)).all()
    a[0, 1] = np.nan
    sc = scored(a, dst, negs, 0.1)
    assert np.isnan(sc.s_pos[0]) and np.isnan(sc.terms[0]).all()


@pytest.mark.parametrize("chunk", [None, 7, 64])
def test_rows_at_in_chunks_equals_ordered_loop(monkeypatch, chunk):
    """rows_at over more rows than one chunk, with rows repeated within and across the
    chunk boundaries, applies every update in order, as a per-row loop does, bit for bit.
    The values span many magnitudes, so the reversed order gives other bits."""
    if chunk is not None:
        monkeypatch.setattr(losses, "AT_CHUNK", chunk)
    rng = np.random.default_rng(17)
    dim = 3
    per = max(1, losses.AT_CHUNK // dim)  # rows per ufunc.at call
    rows = rng.integers(0, 6, size=2 * per + 61)
    rows[per - 2 : per + 2] = rows[per - 2]  # one row on both sides of a boundary
    values = rng.normal(size=(rows.size, dim)) * 10.0 ** rng.integers(-9, 9, size=(rows.size, 1))
    for ufunc in (np.add, np.subtract):
        start = rng.normal(size=(6, dim))
        want, backwards = start.copy(), start.copy()
        for r, v in zip(rows.tolist(), values):
            want[r] = ufunc(want[r], v)
        for r, v in zip(rows[::-1].tolist(), values[::-1]):
            backwards[r] = ufunc(backwards[r], v)
        got = start.copy()
        rows_at(ufunc, got, rows, values)
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() != backwards.tobytes()


def test_finite_diff_check_flags_wrong_gradient():
    def broken(x):
        return float((x**2).sum()), 3.0 * x  # true gradient is 2x

    assert finite_diff_check(broken, np.array([1.0, 2.0]), seed=0) > 0.3
