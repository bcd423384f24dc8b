import numpy as np
import pytest

from spheretrs import (
    BtrsProblem,
    CallbackOp,
    DenseOp,
    DiagonalOp,
    DimensionMismatchError,
    EigLowRankOp,
    EigSeedPrecond,
    ProblemFormatError,
    SymOp,
    load_problem,
    problem_from_dict,
)
from spheretrs.trs import AugmentedOp


def test_dense_apply():
    a = DenseOp(np.array([[1.0, 2.0], [2.0, 5.0]]))
    v = np.array([1.0, -1.0])
    assert np.allclose(a.apply(v), [-1.0, -3.0])


@pytest.mark.parametrize("n", [1, 2, 7, 300])
def test_dense_apply_matches_full_product(n):
    rng = np.random.default_rng(n)
    m = _sym(rng, n)
    a = DenseOp(m)
    block = rng.standard_normal((n, 3))
    # A column of a C-order block is strided, as the base apply_block passes it.
    for v in (block[:, 0].copy(), block[:, 1]):
        tol = 1e-13 * np.linalg.norm(m, 2) * np.linalg.norm(v)
        assert np.linalg.norm(a.apply(v) - m @ v) <= tol


def test_dense_apply_reads_one_triangle():
    rng = np.random.default_rng(3)
    n = 9
    a = DenseOp(_sym(rng, n))
    v = rng.standard_normal(n)
    want = a.apply(v)
    unread = []
    for rows, cols in (np.triu_indices(n, 1), np.tril_indices(n, -1)):
        planted = DenseOp(a.matrix)
        planted.matrix[rows, cols] = 1e6
        unread.append(np.array_equal(planted.apply(v), want))
    assert unread.count(True) == 1


def test_dense_symmetrizes_mild_asymmetry():
    m = np.array([[1.0, 2.0 + 1e-14], [2.0, 5.0]])
    a = DenseOp(m)
    assert np.allclose(a.to_dense(), a.to_dense().T)


def test_dense_rejects_asymmetric():
    with pytest.raises(ValueError):
        DenseOp(np.array([[1.0, 2.0], [0.0, 5.0]]))


def test_diagonal_and_callback_agree():
    d = np.array([3.0, -1.0, 0.5])
    diag = DiagonalOp(d)
    cb = CallbackOp(lambda v: d * v, 3)
    v = np.array([1.0, 2.0, 4.0])
    assert np.allclose(diag.apply(v), cb.apply(v))
    assert np.allclose(diag.to_dense(), np.diag(d))


def test_eiglowrank_matches_dense_form():
    rng = np.random.default_rng(0)
    g = rng.standard_normal((6, 3))
    u, _ = np.linalg.qr(g)
    d = np.array([2.0, -1.0, 0.5])
    op = EigLowRankOp(u, d, shift=0.25)
    full = (u * d) @ u.T + 0.25 * np.eye(6)
    v = rng.standard_normal(6)
    assert np.allclose(op.apply(v), full @ v)
    assert np.allclose(op.to_dense(), full)


def test_eiglowrank_requires_orthonormal_factor():
    u = np.ones((4, 2))
    with pytest.raises(ValueError):
        EigLowRankOp(u, np.array([1.0, 2.0]))


def test_operator_dimension_validated():
    for bad in (0, -2, 2.5, "5", True):
        with pytest.raises(ValueError, match="^dim must be an integer >= 1"):
            CallbackOp(lambda v: v, bad)
    assert CallbackOp(lambda v: v, np.int64(3)).dim == 3


def test_dimension_mismatch():
    a = DiagonalOp(np.array([1.0, 2.0]))
    with pytest.raises(DimensionMismatchError):
        a.apply(np.ones(3))


@pytest.mark.parametrize(
    "field, build",
    [
        ("matrix", lambda bad: DenseOp(np.array([[1.0, bad], [bad, 2.0]]))),
        ("diag", lambda bad: DiagonalOp(np.array([1.0, bad]))),
        ("u", lambda bad: EigLowRankOp(np.array([[1.0, bad], [0.0, 1.0]]), np.ones(2))),
        ("d", lambda bad: EigLowRankOp(np.eye(2), np.array([1.0, bad]))),
        ("shift", lambda bad: EigLowRankOp(np.eye(2), np.ones(2), shift=bad)),
        pytest.param(
            "u", lambda bad: EigSeedPrecond(np.array([[1.0, bad], [0.0, 1.0]]), np.ones(2)),
            id="u-eigseed",
        ),
        pytest.param(
            "d", lambda bad: EigSeedPrecond(np.eye(2), np.array([1.0, bad])), id="d-eigseed"
        ),
        ("b", lambda bad: BtrsProblem(a=DiagonalOp(np.ones(2)), b=np.array([bad, 0.0]))),
    ],
)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_input(field, build, bad):
    with pytest.raises(ValueError, match=f"^{field} has non-finite"):
        build(bad)


def _sym(rng, n):
    m = rng.standard_normal((n, n))
    return (m + m.T) / 2


@pytest.mark.parametrize(
    "build",
    [
        lambda rng: DenseOp(_sym(rng, 6)),
        lambda rng: DiagonalOp(rng.standard_normal(6)),
        lambda rng: EigLowRankOp(np.linalg.qr(rng.standard_normal((6, 3)))[0], rng.standard_normal(3), 0.5),
        lambda rng: CallbackOp(_sym(rng, 6).__matmul__, 6),
        lambda rng: AugmentedOp(DenseOp(_sym(rng, 5))),
        lambda rng: EigSeedPrecond(np.linalg.qr(rng.standard_normal((6, 3)))[0], rng.standard_normal(3)),
    ],
    ids=["dense", "diagonal", "eiglowrank", "callback", "augmented", "eigseed"],
)
def test_apply_block_equals_column_loop(build):
    rng = np.random.default_rng(4)
    a = build(rng)
    v = rng.standard_normal((6, 4))
    loop = np.column_stack([a.apply(v[:, j]) for j in range(4)])
    assert np.array_equal(a.apply_block(v), loop)


def test_apply_block_charges_one_apply_per_column():
    class Counting(SymOp):
        def __init__(self, inner):
            super().__init__(inner.dim)
            self.inner = inner
            self.matvecs = 0

        def _matvec(self, v):
            self.matvecs += 1
            return self.inner.apply(v)

    m = _sym(np.random.default_rng(5), 7)
    a = Counting(DenseOp(m))
    assert a.apply_block(np.ones((7, 3))).shape == (7, 3)
    assert a.matvecs == 3
    assert np.allclose(a.to_dense(), m, rtol=0, atol=1e-14)
    assert a.matvecs == 3 + 7
    with pytest.raises(DimensionMismatchError):
        a.apply_block(np.ones(7))
    with pytest.raises(DimensionMismatchError):
        a.apply_block(np.ones((6, 2)))


def _load_text(tmp_path, text):
    path = tmp_path / "p.json"
    path.write_text(text)
    return load_problem(path)


@pytest.mark.parametrize(
    "make, error, match",
    [
        (
            lambda _: BtrsProblem(a=DiagonalOp(np.ones(3)), b=np.ones(2)),
            ValueError,
            "^b length",
        ),
        (lambda _: DenseOp(np.ones((2, 3))), ValueError, "square matrix"),
        (
            lambda _: DiagonalOp(np.ones((2, 2))),
            ValueError,
            r"^diag must be a vector, got shape \(2, 2\)",
        ),
        (
            lambda _: EigLowRankOp(np.eye(3)[:, :2], np.ones(3)),
            ValueError,
            "^factor U must be n-by-r",
        ),
        (
            lambda _: CallbackOp(lambda v: np.ones(2), 3).apply(np.ones(3)),
            DimensionMismatchError,
            r"^callback output must have shape \(3,\), got \(2,\)",
        ),
        (
            lambda _: problem_from_dict({"n": 2, "A": 3, "b": [0, 0]}),
            ProblemFormatError,
            "^field 'A'",
        ),
        (lambda _: problem_from_dict([1, 2]), ProblemFormatError, "JSON object"),
        (lambda tmp: _load_text(tmp, "{"), ProblemFormatError, "^invalid JSON"),
    ],
)
def test_entry_checks_name_their_field(tmp_path, make, error, match):
    with pytest.raises(error, match=match):
        make(tmp_path)
