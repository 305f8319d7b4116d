import itertools
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from qe2 import catalog, ncalg, suites
from qe2.exprio import format_canonical
from qe2.ncalg import (
    AffineSolutions,
    LetterPushFold,
    NCPoly,
    NonConfluentTower,
    RewriteBudgetExceeded,
    TowerError,
    commutator,
    decide_confluence,
    diamond_check,
    graded_degree,
    load_tower,
    normal_form,
    order_certificate,
    solve_terms,
    span_solve,
)

from qe2.scalars import GaussRational, Parameter, ScalarContext, ScalarError, _triple

from conftest import preset_dict
import stack_rewriter


# -- normal forms, hand-derived oracle values --------------------------------


def test_base_laurent(qe2_tower):
    t = qe2_tower
    assert t.poly("v*vb").is_one()
    assert t.poly("vb*v").is_one()
    assert format_canonical(t.poly("v*vb")) == "1"


def test_swap_n_v(qe2_tower):
    # n.v = v.n + omega(v - 1)
    t = qe2_tower
    assert t.poly("n*v") == t.poly("v*n + omega*v - omega")


def test_swap_nb_v(qe2_tower):
    # nb.v = v.nb + omega(v^2 - v)
    t = qe2_tower
    assert t.poly("nb*v") == t.poly("v*nb + omega*v^2 - omega*v")


def test_swap_nb_n(qe2_tower):
    # two-path hand reduction: nb.n = n.nb + omega n - omega nb
    t = qe2_tower
    assert t.poly("nb*n") == t.poly("n*nb + omega*n - omega*nb")


def test_sandwich_regression(qe2_tower):
    # v n v^-1, frozen after the step-by-step sandwich reduction
    t = qe2_tower
    assert t.poly("v*n*vb") == t.poly("n + omega*v^-1 - omega")


def test_inverse_swap_rules(qe2_tower):
    # derived via sigma(x^-1) = sigma(x)^-1, delta(x^-1) = -sigma(x)^-1 delta(x) x^-1
    t = qe2_tower
    assert t.poly("n*vb") == t.poly("vb*n + omega*vb^2 - omega*vb")
    assert t.poly("nb*vb") == t.poly("vb*nb - omega + omega*vb")


def test_cylinder_swap(cylinder_tower):
    t = cylinder_tower
    assert t.poly("m*v") == t.poly("v*m + omega*v^2 - omega")
    assert t.poly("m*vb") == t.poly("vb*m + omega*vb^2 - omega")
    assert t.poly("v*vb*m") == t.poly("m")
    assert t.poly("m^2*m") == t.poly("m^3")


def test_commutators(qe2_tower, cylinder_tower):
    t = qe2_tower
    v, n = t.gen("v"), t.gen("n")
    assert commutator(v, n) == t.poly("omega - omega*v")
    assert commutator(v, v.unit_inverse()).is_zero()
    c = cylinder_tower
    assert commutator(c.gen("v"), c.gen("m")) == c.poly("-omega*(v^2 - 1)")


def test_qplane(qplane_tower):
    t = qplane_tower
    assert t.poly("zb*z") == t.poly("q^-1*z*zb")
    assert t.poly("zb*z*z") == t.poly("q^-2*z^2*zb")


# -- diamond checks ------------------------------------------------------------


def test_diamond_passes(qe2_tower, cylinder_tower, qplane_tower):
    for t in (qe2_tower, cylinder_tower, qplane_tower):
        assert diamond_check(t).ok


def test_diamond_rejects_corrupted():
    desc = preset_dict("qe2-nonstd")
    desc["tower"][1]["delta"]["v"] = "omega*v^2"  # level-2 data unchanged
    broken = load_tower(desc, validate=False)
    res = diamond_check(broken)
    assert not res.ok
    assert res.witness_word is not None
    assert res.left_form != res.right_form
    with pytest.raises(NonConfluentTower):
        load_tower(desc)


def test_rewrite_budget_is_not_a_confluence_verdict(monkeypatch):
    tower = load_tower(preset_dict("qe2-nonstd"), validate=False)
    monkeypatch.setattr(ncalg, "REWRITE_STEP_BUDGET", 3)
    with pytest.raises(RewriteBudgetExceeded) as info:
        diamond_check(tower)
    assert not isinstance(info.value, NonConfluentTower)
    assert isinstance(info.value, TowerError)


# -- the letter-push fold against the stack rewriter --------------------------


def _printed_nonstd_tower():
    # the (n, nb) rule with the sign the manuscript prints (suite_diamond)
    desc = preset_dict("qe2-nonstd")
    desc["tower"][2] = {
        "gen": "nb",
        "sigma": {"v": "v", "n": "n + omega"},
        "delta": {"v": "omega*v^2 - omega*v", "n": "-omega*n"},
    }
    return load_tower(desc, validate=False)


def _corrupted_nonstd_tower():
    desc = preset_dict("qe2-nonstd")
    desc["tower"][1]["delta"]["v"] = "omega*v^2"
    return load_tower(desc, validate=False)


def _shipped_towers():
    towers = {}
    for pid in catalog.PRESET_IDS:
        b = catalog.get_preset(pid)
        for attr in ("tower", "group_tower", "space_tower"):
            t = getattr(b, attr)
            if t is not None:
                towers.setdefault(id(t), t)
    return list(towers.values())


def _letters(tower):
    return [
        (j, s)
        for j, g in enumerate(tower.generators)
        for s in ((1, -1) if g.invertible else (1,))
    ]


def test_fold_matches_stack_rewriter():
    towers = _shipped_towers() + [_printed_nonstd_tower()]
    assert len(towers) == 15
    for tower in towers:
        for leftmost in (True, False):
            # one fold for all words, so later words reuse earlier pushes
            fold = LetterPushFold(tower, leftmost)
            for k in range(1, 5):
                for word in itertools.product(_letters(tower), repeat=k):
                    want = stack_rewriter.word_reduce(tower, word, leftmost)
                    assert fold.reduce(word) == want, (tower.name, leftmost, word)


def test_diamond_check_matches_stack_rewriter():
    towers = [("shipped", t) for t in _shipped_towers()] + [
        ("printed", _printed_nonstd_tower()),
        ("corrupted", _corrupted_nonstd_tower()),
    ]
    failed = set()
    for label, tower in towers:
        for degree in (3, 4, 5):
            words = [
                w
                for w in itertools.product(_letters(tower), repeat=degree)
                if all(a[0] >= b[0] for a, b in zip(w, w[1:]))
            ]
            want = stack_rewriter.diamond_check(tower, words)
            got = diamond_check(tower, degree)
            assert (got.ok, got.witness_word, got.left_form, got.right_form) == (
                want.ok, want.witness_word, want.left_form, want.right_form
            ), (tower.name, degree)
            if not got.ok:
                assert got.witness_word == (("nb", 1), ("n", 1)) + (("v", 1),) * (
                    degree - 2
                )
                failed.add((label, degree))
    assert failed == {(label, d) for label in ("printed", "corrupted") for d in (3, 4, 5)}


def _monomials(tower):
    # exponents in [-2, 2] on invertible generators, [0, 2] on the others
    ranges = [range(-2, 3) if g.invertible else range(3) for g in tower.generators]
    return list(itertools.product(*ranges))


def _mono_pairs(mono):
    return [(j, e) for j, e in enumerate(mono) if e]


def test_engine_products_match_stack_rewriter():
    towers = _shipped_towers() + [_printed_nonstd_tower()]
    for tower in towers:
        monos = _monomials(tower)
        for m1, m2 in itertools.product(monos, repeat=2):
            word = _mono_pairs(m1) + _mono_pairs(m2)
            letters = [(j, 1 if e > 0 else -1) for j, e in word for _ in range(abs(e))]
            want = stack_rewriter.word_reduce(tower, letters, leftmost=True)
            got = tower.mul(tower.tower_mono(m1), tower.tower_mono(m2))
            assert got == want, (tower.name, m1, m2)
            assert tower.word_to_poly(word) == want, (tower.name, m1, m2)


def test_engine_product_deeper_than_recursion_limit(monkeypatch):
    # zb^N * z: the engine pushes z past every zb, one push inside the next
    n = sys.getrecursionlimit() + 100
    word = [(1, n), (0, 1)]
    tower = load_tower(preset_dict("quantum-plane"))
    assert tower.word_to_poly(word) == tower.poly(f"q^-{n}*z*zb^{n}")
    monkeypatch.setattr(ncalg, "REWRITE_STEP_BUDGET", n // 2)
    fresh = load_tower(preset_dict("quantum-plane"))
    with pytest.raises(RewriteBudgetExceeded):
        fresh.word_to_poly(word)
    with pytest.raises(RewriteBudgetExceeded):
        fresh.mul(fresh.tower_mono((0, n)), fresh.gen("z"))


def test_fold_chain_deeper_than_recursion_limit(qplane_tower, monkeypatch):
    # zb^N*z: leftmost-first moves z past every zb, one push inside the next
    t = qplane_tower
    n = sys.getrecursionlimit() + 100
    word = ((1, 1),) * n + ((0, 1),)
    want = t.poly(f"q^-{n}*z*zb^{n}")
    assert LetterPushFold(t, leftmost=True).reduce(word) == want
    assert LetterPushFold(t, leftmost=False).reduce(word) == want
    monkeypatch.setattr(ncalg, "REWRITE_STEP_BUDGET", n // 2)
    with pytest.raises(RewriteBudgetExceeded) as info:
        LetterPushFold(t, leftmost=True).reduce(word)
    assert info.value.witness == word


def test_forward_reference_rejected():
    desc = preset_dict("qe2-nonstd")
    desc["tower"][1]["delta"]["v"] = "nb"
    with pytest.raises(TowerError):
        load_tower(desc)


@pytest.mark.parametrize("table, image", [
    ("sigma", "n"),    # a sigma image must live strictly below its level
    ("delta", "nb"),   # a delta image may reach its own level, not above
])
def test_forward_reference_message(table, image):
    desc = preset_dict("qe2-nonstd")
    desc["tower"][1][table]["v"] = image
    with pytest.raises(TowerError, match="level 1 data for v references a forward level"):
        load_tower(desc, validate=False)


def test_noninvertible_sigma_image_rejected():
    desc = preset_dict("quantum-cylinder")
    desc["tower"][1]["sigma"]["v"] = "v + 1"
    with pytest.raises(TowerError):
        load_tower(desc, validate=False)


# -- spanning / degrees -------------------------------------------------------


def _cyl_basis(tower, rmax, smax):
    return {
        (r, s): normal_form(tower, [("v", r), ("m", s)])
        for r in range(-rmax, rmax + 1)
        for s in range(smax + 1)
    }


def test_span_solve_swap_relation(cylinder_tower):
    t = cylinder_tower
    x = t.poly("m*v")
    basis = _cyl_basis(t, 2, 1)
    sol = span_solve(x, basis)
    assert not sol.empty and sol.unique
    W = t.context.param("omega")
    assert sol.particular == {(1, 1): t.context.one, (2, 0): W, (0, 0): -W}


def test_basis_independence(cylinder_tower):
    basis = _cyl_basis(cylinder_tower, 3, 3)
    zero = NCPoly.zero(cylinder_tower)
    sol = span_solve(zero, basis)
    assert not sol.empty
    assert sol.particular == {}
    assert sol.unique


def test_outside_span(qe2_tower):
    # v^r m^s expansions never reach n: the (n, nb)-imbalance is off
    t = qe2_tower
    m = t.poly("vb*nb - v*n")
    basis = {(r, s): normal_form(t, [("v", r)]) * m ** s for r in range(-2, 3) for s in range(3)}
    assert span_solve(t.gen("n"), basis).empty


def test_span_solve_large_embedded_basis(qe2_tower):
    # 66 columns v^r m^s (|r| <= 5, s <= 5) over about 277 equations
    t = qe2_tower
    ctx = t.context
    m = t.poly("vb*nb - v*n")
    m_pows = [m ** s for s in range(6)]
    basis = {(r, s): normal_form(t, [("v", r)]) * m_pows[s] for r in range(-5, 6) for s in range(6)}
    W = ctx.param("omega")
    planted = {(-5, 3): ctx.from_int(2), (1, 4): -W, (5, 5): ctx.one + W * W}
    x = NCPoly.zero(t)
    for label, c in planted.items():
        x = x + basis[label].scale(c)
    sol = span_solve(x, basis)
    assert sol.unique
    assert sol.particular == planted
    assert span_solve(x + t.gen("nb"), basis).empty


def test_span_of_zero_vectors_is_not_independent(qe2_tower):
    # no monomial occurs, so the system has no equation; the column count
    # still comes from the basis
    zero = NCPoly.zero(qe2_tower)
    sol = span_solve(zero, {"a": zero, "b": zero})
    assert sol.dimension == 2
    assert not sol.unique
    assert sol.particular == {}
    assert sol.nullspace == {"a": {"a": qe2_tower.context.one}, "b": {"b": qe2_tower.context.one}}


small_gauss = st.builds(
    GaussRational,
    st.sampled_from([-2, -1, 0, 0, 0, 1, 2]),
    st.sampled_from([-1, 0, 0, 0, 1]),
)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_solve_terms_matches_sympy(data):
    # random constant Q(i) systems, one equation per key 0..nrows-1
    sympy = pytest.importorskip("sympy")
    ctx = ScalarContext()
    nrows, ncols = data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4))
    dense = [[data.draw(small_gauss) for _ in range(ncols)] for _ in range(nrows)]
    if data.draw(st.booleans()):  # consistent: rhs is a combination of columns
        x = [data.draw(small_gauss) for _ in range(ncols)]
        rhs = [sum((a * b for a, b in zip(row, x)), GaussRational(0)) for row in dense]
    else:
        rhs = [data.draw(small_gauss) for _ in range(nrows)]

    def system(keys):
        target = {keys[k]: ctx.from_gauss(b) for k, b in enumerate(rhs) if b}
        cols = {
            j: {keys[k]: ctx.from_gauss(row[j]) for k, row in enumerate(dense) if row[j]}
            for j in range(ncols)
        }
        return target, cols

    target, cols = system(list(range(nrows)))
    sol = solve_terms(target, cols, ctx)
    # relabelling the keys reorders the equations and changes nothing
    shuffled = data.draw(st.permutations(range(nrows)))
    assert solve_terms(*system(shuffled), ctx) == sol

    def to_sympy(g):
        a, b, d = _triple(g)
        return sympy.Rational(a, d) + sympy.I * sympy.Rational(b, d)

    A = sympy.Matrix(nrows, ncols, [to_sympy(g) for row in dense for g in row])
    Ab = A.row_join(sympy.Matrix(nrows, 1, [to_sympy(b) for b in rhs]))
    rank = A.rank()
    assert sol.empty == (Ab.rank() > rank)
    if sol.empty:
        return

    def image(vec):
        return [
            sum((ctx.from_gauss(row[j]) * c for j, c in vec.items()), ctx.zero)
            for row in dense
        ]

    assert set(sol.particular) <= set(range(ncols))
    assert image(sol.particular) == [ctx.from_gauss(b) for b in rhs]
    for free, vec in sol.nullspace.items():
        assert vec[free] == ctx.one and set(vec) <= set(range(ncols))
        assert all(not c for c in image(vec))
    assert sol.dimension == ncols - rank


# p + q*i + r*omega, never zero
omega_entry = st.tuples(
    st.integers(-2, 2), st.integers(-1, 1), st.integers(-2, 2)
).filter(any)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_sparse_omega_systems_match_sympy_rank(data):
    # systems over Q(i)(omega) up to 8 x 8 with at least 60% zero entries;
    # the rank comes from sympy over the same field
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    ctx = ScalarContext([Parameter("omega")])
    omega = ctx.param("omega")
    w = sympy.Symbol("omega")
    nrows, ncols = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    cells = [(k, j) for k in range(nrows) for j in range(ncols)]
    dense = [[(0, 0, 0)] * ncols for _ in range(nrows)]
    for k, j in data.draw(
        st.lists(st.sampled_from(cells), unique=True, max_size=2 * len(cells) // 5)
    ):
        dense[k][j] = data.draw(omega_entry)
    scale = data.draw(st.sampled_from([-2, -1, 1, 2]))

    def nnz(vec):
        return sum(any(t) for t in vec)

    def densest_from_sparsest(vecs):
        # overwrite the densest vector with a multiple of the sparsest other
        # one (or zero it when there is no other): the zero share only grows
        order = sorted(range(len(vecs)), key=lambda i: nnz(vecs[i]))
        dst = order[-1]
        src = order[0] if len(order) > 1 else None
        vecs[dst] = [
            (0, 0, 0) if src is None else tuple(scale * a for a in vecs[src][i])
            for i in range(len(vecs[dst]))
        ]
        return dst

    mode = data.draw(st.sampled_from(["consistent", "inconsistent", "rank-deficient"]))
    if mode == "rank-deficient":
        cols_t = [list(col) for col in zip(*dense)]
        densest_from_sparsest(cols_t)
        dense = [list(row) for row in zip(*cols_t)]
    planted_row = densest_from_sparsest(dense) if mode == "inconsistent" else None
    assert sum(not any(t) for row in dense for t in row) >= 0.6 * len(cells)

    def scalar(t):
        return ctx.from_gauss(GaussRational(t[0], t[1])) + ctx.from_int(t[2]) * omega

    def to_sympy(t):
        return t[0] + sympy.I * t[1] + t[2] * w

    x = [data.draw(omega_entry) for _ in range(ncols)]
    planted = [(0, 0, 0)] * nrows
    if planted_row is not None:
        # the planted row is a multiple of another one (or zero), and its
        # right-hand side breaks that relation
        planted[planted_row] = data.draw(omega_entry)
    A = [[scalar(t) for t in row] for row in dense]
    rhs = [
        sum((a * scalar(t) for a, t in zip(row, x)), scalar(p))
        for row, p in zip(A, planted)
    ]

    def system(keys):
        target = {keys[k]: b for k, b in enumerate(rhs) if b}
        cols = {j: {keys[k]: row[j] for k, row in enumerate(A) if row[j]} for j in range(ncols)}
        return target, cols

    sol = solve_terms(*system(list(range(nrows))), ctx)
    # relabelling the keys reorders the equations and changes nothing
    shuffled = data.draw(st.permutations(range(nrows)))
    assert solve_terms(*system(shuffled), ctx) == sol

    field = sympy.QQ_I.frac_field(w)
    A_s = sympy.Matrix(nrows, ncols, [to_sympy(t) for row in dense for t in row])
    rhs_s = A_s * sympy.Matrix([to_sympy(t) for t in x]) + sympy.Matrix(
        [to_sympy(t) for t in planted]
    )

    def rank(m):
        return DomainMatrix.from_Matrix(m).convert_to(field).rank()

    rank_a = rank(A_s)
    assert sol.empty == (rank(A_s.row_join(rhs_s)) > rank_a)
    assert sol.empty == (mode == "inconsistent")
    if mode == "rank-deficient":
        assert rank_a < ncols
    if sol.empty:
        return

    def image(vec):
        return [sum((row[j] * c for j, c in vec.items()), ctx.zero) for row in A]

    assert image(sol.particular) == rhs
    assert len(sol.nullspace) == ncols - rank_a
    for free, vec in sol.nullspace.items():
        assert vec[free] == ctx.one and not any(image(vec))


def _dense_solve_affine(rows, rhs, ctx):
    """Dense Gauss-Jordan on a rows x columns grid of Scalars: every row
    operation runs over every column.  Returns (particular, nullspace) as
    term maps over the column indices, or None when the system is
    inconsistent."""
    ncols = len(rows[0]) if rows else 0
    mat = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((rr for rr in range(r, len(mat)) if mat[rr][c]), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for rr in range(len(mat)):
            if rr != r and mat[rr][c]:
                f = mat[rr][c]
                mat[rr] = [a - f * b for a, b in zip(mat[rr], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    if any(mat[rr][ncols] for rr in range(r, len(mat))):
        return None
    coeffs = {c: mat[rr][ncols] for rr, c in enumerate(pivots) if mat[rr][ncols]}
    null = {}
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = null[fc] = {fc: ctx.one}
        for rr, c in enumerate(pivots):
            if mat[rr][fc]:
                vec[c] = -mat[rr][fc]
    return coeffs, null


def test_solve_terms_matches_dense_elimination(qe2_tower):
    # the sparse solver against dense elimination, on random omega-systems
    # given as column term maps
    ctx = qe2_tower.context
    omega = ctx.param("omega")
    rng = random.Random(11)

    def entry():
        if rng.random() < 0.5:
            return ctx.zero
        return ctx.from_int(rng.randint(-3, 3)) + ctx.from_int(rng.randint(-2, 2)) * omega

    solved = 0
    for _ in range(60):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        if rng.random() < 0.5:  # consistent: rhs is a combination of columns
            x = [entry() for _ in range(ncols)]
            rhs = [sum((a * b for a, b in zip(row, x)), ctx.zero) for row in rows]
        else:
            rhs = [entry() for _ in range(nrows)]
        want = _dense_solve_affine(rows, rhs, ctx)
        want = AffineSolutions(*want) if want is not None else AffineSolutions(None, {})
        target = {k: b for k, b in enumerate(rhs) if b}
        cols = {j: {k: row[j] for k, row in enumerate(rows) if row[j]} for j in range(ncols)}
        assert solve_terms(target, cols, ctx) == want
        solved += not want.empty
    assert 20 < solved < 60


@given(data=st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_contains_decides_membership_of_a_term_map(data):
    # random sparse consistent systems over Q(i)(omega) with string labels;
    # membership is checked against the sum of the columns, by collect
    ctx = ScalarContext([Parameter("omega")])
    omega = ctx.param("omega")

    def scalar(t):
        return ctx.from_gauss(GaussRational(t[0], t[1])) + ctx.from_int(t[2]) * omega

    nrows, ncols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    labels = data.draw(st.permutations([f"c{j}" for j in range(ncols)]))
    cells = data.draw(st.lists(
        st.tuples(st.integers(0, nrows - 1), st.sampled_from(labels)),
        unique=True, max_size=2 * nrows * ncols // 3,
    ))
    columns = {l: {} for l in labels}
    for k, l in cells:
        columns[l][k] = scalar(data.draw(omega_entry))
    x0 = {l: scalar(data.draw(omega_entry)) for l in labels}

    def combination(x):
        return ncalg.collect((k, c * v) for l, c in x.items() for k, v in columns[l].items())

    target = combination(x0)
    sol = solve_terms(target, columns, ctx)
    assert not sol.empty

    def solves(x):
        return set(x) <= set(labels) and combination(x) == target

    free = {f: scalar(data.draw(omega_entry)) for f in sol.nullspace}
    member = ncalg.collect(itertools.chain(
        sol.particular.items(),
        ((k, free[f] * c) for f, vec in sol.nullspace.items() for k, c in vec.items()),
    ))
    assert solves(member) and sol.contains(member)
    moved = ncalg.collect([*member.items(), (data.draw(st.sampled_from(labels)), ctx.one)])
    assert sol.contains(moved) == solves(moved)
    assert not sol.contains({**member, "not a column": ctx.one})
    # a system with no solution contains nothing
    assert not solve_terms({nrows: ctx.one}, columns, ctx).contains(member)


def test_graded_degree(cylinder_tower):
    t = cylinder_tower
    assert graded_degree(t.poly("v^3*m^2"), "m") == 2
    assert graded_degree(t.gen("v"), "m") == 0
    with pytest.raises(ValueError):
        graded_degree(NCPoly.zero(t), "m")


def test_degm_additive_random(cylinder_tower):
    t = cylinder_tower
    rng = random.Random(7)

    def rand_elt():
        out = NCPoly.zero(t)
        for _ in range(rng.randint(1, 3)):
            r = rng.randint(-2, 2)
            s = rng.randint(0, 2)
            c = t.context.from_int(rng.randint(1, 5))
            out = out + normal_form(t, [("v", r), ("m", s)]).scale(c)
        return out

    for _ in range(25):
        p, q = rand_elt(), rand_elt()
        assert graded_degree(p * q, "m") == graded_degree(p, "m") + graded_degree(q, "m")


# -- algebra laws on random elements ------------------------------------------


def _rand_poly(tower, rng, deg=2):
    gens = tower.generators
    out = NCPoly.zero(tower)
    for _ in range(rng.randint(1, 3)):
        word = []
        for _ in range(rng.randint(0, deg)):
            j = rng.randrange(len(gens))
            e = rng.choice([-1, 1]) if gens[j].invertible else 1
            word.append((j, e))
        term = normal_form(tower, word).scale(tower.context.from_int(rng.randint(-3, 3)))
        out = out + term
    return out


@pytest.mark.parametrize("seed", range(6))
def test_mul_associative_random(qe2_tower, seed):
    rng = random.Random(seed)
    a, b, c = (_rand_poly(qe2_tower, rng) for _ in range(3))
    assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("seed", range(4))
def test_normal_form_idempotent(qe2_tower, seed):
    rng = random.Random(100 + seed)
    a = _rand_poly(qe2_tower, rng)
    rebuilt = NCPoly.from_terms(
        qe2_tower,
        [
            (m, c)
            for m, c in a.terms.items()
        ],
    )
    assert rebuilt == a
    # multiplying by 1 re-runs the engine and must not change anything
    assert a * NCPoly.one(qe2_tower) == a
    assert NCPoly.one(qe2_tower) * a == a


# -- the shared term-map core --------------------------------------------------

_CTX = ScalarContext([Parameter("omega")])
# small coefficients, so that pairs on one key often cancel; zero included
_small_scalars = st.builds(
    lambda a, b, e: _CTX.from_gauss(GaussRational(a, b)) * _CTX.param("omega") ** e,
    st.integers(-2, 2),
    st.integers(-1, 1),
    st.integers(0, 1),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), _small_scalars), max_size=14))
def test_collect_matches_naive_sum(pairs):
    sums = {}
    for key, c in pairs:
        sums[key] = sums.get(key, _CTX.zero) + c
    assert ncalg.collect(pairs) == {k: c for k, c in sums.items() if c}
    assert ncalg.collect(iter(pairs)) == ncalg.collect(pairs)
    assert all(ncalg.collect(pairs).values())


# -- the bilinear kernel against Scalar arithmetic -------------------------------

_OMEGA = _CTX.param("omega")
# structure coefficients: the pinned one, constants, a monomial, multi-term
# polynomials and a fraction (which takes Scalar arithmetic)
_STRUCTURE = (
    _CTX.one,
    _CTX.from_int(-1),
    _CTX.i * 2,
    _OMEGA,
    _CTX.one - _OMEGA,
    _OMEGA ** 2 - _CTX.i * _OMEGA + _CTX.from_int(3),
    _CTX.one / (_CTX.one + _OMEGA),
)
# data coefficients: polynomial, over the monomial omega or over 1+omega;
# small parts, so that contributions to one key often cancel
_kernel_scalars = st.builds(
    lambda a, b, e, den: (_CTX.from_gauss(GaussRational(a, b)) + _OMEGA * e) / den,
    st.integers(-2, 2),
    st.integers(-1, 1),
    st.integers(-1, 1),
    st.sampled_from([_CTX.one, _CTX.from_int(2), _OMEGA, _CTX.one + _OMEGA]),
).filter(bool)
_term_maps = st.dictionaries(st.integers(0, 2), _kernel_scalars, max_size=3)
_tables = st.fixed_dictionaries({
    (m1, m2): st.dictionaries(
        st.integers(0, 3), st.integers(0, len(_STRUCTURE) - 1), min_size=1, max_size=3
    )
    for m1 in range(3) for m2 in range(3)
})
_HALF = _CTX.one / 2
_PAIR_TO_KEY_0 = {(m1, m2): {0: 0} for m1 in range(3) for m2 in range(3)}


_ONE_PLUS = _CTX.one + _OMEGA


@settings(max_examples=60, deadline=None)
@given(_term_maps, _term_maps, _tables)
# sums equal to 1: raw (a pair with a two-term coefficient) and Scalar
@example({0: _ONE_PLUS, 1: _CTX.one - _OMEGA}, {0: _HALF}, _PAIR_TO_KEY_0)
@example({0: _CTX.from_int(2), 1: -_CTX.one}, {0: _CTX.one}, _PAIR_TO_KEY_0)
# single products equal to 1: 1/2 * 2 and (1+omega)^-1 * (1+omega)
@example({0: _HALF}, {0: _CTX.from_int(2)}, _PAIR_TO_KEY_0)
@example({0: _STRUCTURE[-1]}, {0: _ONE_PLUS}, _PAIR_TO_KEY_0)
# sums that cancel to zero, raw and Scalar
@example({0: _ONE_PLUS, 1: -_ONE_PLUS}, {0: _CTX.from_int(2)}, _PAIR_TO_KEY_0)
@example({0: _OMEGA, 1: -_OMEGA}, {2: _CTX.one}, _PAIR_TO_KEY_0)
# a product with a fraction joins a raw sum
@example({0: _ONE_PLUS, 1: _ONE_PLUS, 2: _STRUCTURE[-1]}, {0: _CTX.from_int(2)},
         _PAIR_TO_KEY_0)
def test_bilinear_matches_scalar_products(p, q, rows):
    table = {
        pair: tuple((m, _STRUCTURE[j]) for m, j in row.items())
        for pair, row in rows.items()
    }
    cache = {}
    got = ncalg.bilinear(p, q, cache, lambda m1, m2: table[m1, m2], _CTX.one)
    want = ncalg.collect(
        (m, c1 * c2 * s)
        for m1, c1 in p.items() for m2, c2 in q.items() for m, s in table[m1, m2]
    )
    assert got == want
    assert all(got.values())
    # a coefficient equal to 1 is the unit object itself
    assert all(c is _CTX.one for c in got.values() if c == _CTX.one)
    assert set(cache) == {(m1, m2) for m1 in p for m2 in q}


_BIG = _OMEGA ** 2 ** 30  # a square reaches the guard bit of omega's field


@pytest.mark.parametrize(
    "p, q, table",
    [
        ({0: _BIG}, {0: _BIG}, {(0, 0): ((0, _CTX.one),)}),
        ({0: _CTX.one}, {0: _BIG}, {(0, 0): ((0, _BIG),)}),
        # (1 + omega) * omega^(2^30), then a raw product by omega^(2^30)
        ({0: _CTX.one + _OMEGA}, {0: _BIG}, {(0, 0): ((0, _BIG),)}),
        ({0: _BIG / (_CTX.one + _OMEGA)}, {0: _BIG}, {(0, 0): ((0, _CTX.one),)}),
    ],
    ids=["data-product", "structure-coefficient", "raw-sum", "fraction"],
)
def test_bilinear_product_past_the_exponent_bound_raises(p, q, table):
    with pytest.raises(ScalarError):
        ncalg.bilinear(p, q, {}, lambda m1, m2: table[m1, m2], _CTX.one)


def test_products_parsed_before_their_level_is_set():
    # "b*a - b*a" is parsed while the tower still commutes, so b*a is
    # multiplied as a*b then; the quantum-plane rule set right after must
    # decide every later product
    desc = {
        "name": "plane",
        "parameters": [{"name": "q"}],
        "tower": [
            {"gen": "a"},
            {"gen": "b", "sigma": {"a": "q*a"}, "delta": {"a": "b*a - b*a"}},
        ],
    }
    tower = load_tower(desc)
    assert not tower.commutative
    assert tower.poly("b*a") == tower.poly("q*a*b")
    assert tower.gen("b") * tower.gen("a") == tower.poly("q*a*b")
    assert tower.word_to_poly([(1, 1), (0, 1)]) == tower.poly("q*a*b")


# -- confluence decided at load: degree-3 check plus an order certificate -----


def test_order_certificate_on_shipped_and_printed_towers():
    shipped = _shipped_towers()
    assert len(shipped) == 14
    for tower in shipped:
        # all-ones weights (plain deglex) is the first fit on every tower
        assert order_certificate(tower) == (1,) * tower.nlevels, tower.name
        assert tower.confluence.ok
        assert tower.confluence.weights == (1,) * tower.nlevels, tower.name
    printed = _printed_nonstd_tower()
    assert printed.confluence is None  # loaded with validate=False
    assert order_certificate(printed) == (1, 1, 1)


def test_certified_towers_agree_at_degrees_3_4_5():
    # the diamond lemma: with an order certificate, resolving the degree-3
    # overlaps decides confluence at every degree
    towers = _shipped_towers() + [_printed_nonstd_tower(), _corrupted_nonstd_tower()]
    for tower in towers:
        assert order_certificate(tower) is not None, tower.name
        oks = [diamond_check(tower, d).ok for d in (3, 4, 5)]
        assert oks in ([True] * 3, [False] * 3), (tower.name, oks)


def test_commutative_towers_get_the_long_way_decision():
    # the load-time shortcut gives what the degree-3 check plus the order
    # certificate give, on every commutative tower: the fun-e2, plane and
    # cylinder presentations, coaction group and space towers, quotient
    # targets
    commutative = [t for t in _shipped_towers() if t.commutative]
    assert len(commutative) == 11
    for tower in commutative:
        long_way = diamond_check(tower, 3)
        long_way.weights = order_certificate(tower)
        assert tower.confluence == long_way, tower.name
        assert decide_confluence(tower) == long_way, tower.name


def test_cold_load_checks_only_the_noncommutative_towers(monkeypatch):
    monkeypatch.setattr(catalog, "_CACHE", {})
    calls = []
    real = ncalg.diamond_check

    def counting(tower, degree=3):
        calls.append(tower.name)
        return real(tower, degree)

    monkeypatch.setattr(ncalg, "diamond_check", counting)
    for pid in catalog.PRESET_IDS:
        catalog.get_preset(pid)
    assert sorted(calls) == ["qe2-nonstd", "quantum-cylinder", "quantum-plane"]


def test_commutative_tower_with_invertible_generators_gets_all_ones():
    desc = {
        "tower": [
            {"gen": "v", "invertible": True},
            {"gen": "a"},
            {"gen": "w", "invertible": True},
        ]
    }
    tower = load_tower(desc)
    assert tower.commutative
    assert tower.confluence == ncalg.DiamondResult(True, weights=(1, 1, 1))
    assert tower.poly("w^-1*a*v") == tower.poly("v*a*w^-1")


def _plane_with_delta(img):
    desc = preset_dict("quantum-plane")
    desc["tower"][1]["delta"] = {"z": img}
    del desc["star"]
    return load_tower(desc)


def test_rule_against_every_weighted_order_is_uncertified():
    # zb*z -> q^-1*z*zb + z*zb^2: the term outweighs its redex for all weights
    tower = _plane_with_delta("z*zb^2")
    assert order_certificate(tower) is None
    res = tower.confluence
    assert res.ok and res.weights is None
    assert "uncertified" in res.describe()
    # zb*z -> ... + zb^2 decreases once z weighs more than zb
    assert order_certificate(_plane_with_delta("zb^2")) == (2, 1)
    assert _plane_with_delta("zb^2").confluence.weights == (2, 1)
    # an inverse letter weighs what its generator weighs: b*a -> v^-2*a*b
    # grows by two letters v^-1
    desc = {
        "tower": [
            {"gen": "v", "invertible": True},
            {"gen": "a"},
            {"gen": "b", "delta": {"a": "v^-2*a*b"}},
        ]
    }
    assert load_tower(desc).confluence == ncalg.DiamondResult(True)


def test_decide_confluence_keeps_the_printed_witness():
    res = decide_confluence(_printed_nonstd_tower())
    assert not res.ok
    assert res.witness_word == (("nb", 1), ("n", 1), ("v", 1))
    assert res.weights == (1, 1, 1)
    assert res.describe().startswith("overlap nb*n*v: ")


def test_suite_diamond_reports_the_stored_decisions(monkeypatch):
    for pid in catalog.PRESET_IDS:
        catalog.get_preset(pid)
    calls = []
    real = ncalg.diamond_check

    def counting(tower, degree=3):
        calls.append((tower, degree))
        return real(tower, degree)

    monkeypatch.setattr(ncalg, "diamond_check", counting)
    rep = suites.run_suite("diamond")
    assert [(t.generators[2].name, d) for t, d in calls] == [("nb", 3)]
    assert calls[0][0] is not catalog.get_preset("qe2-nonstd").tower
    status = {r.check_id: r.status for r in rep.records}
    assert status == {
        "diamond-qe2-nonstd": "pass",
        "diamond-quantum-cylinder": "pass",
        "diamond-quantum-plane": "pass",
        "tower-printed-nonstd-sign": "discrepancy",
    }
    # a stored decision without weights is no pass
    plane = catalog.get_preset("quantum-plane").tower
    monkeypatch.setattr(plane, "confluence", ncalg.DiamondResult(True))
    rec = next(
        r for r in suites.run_suite("diamond").records
        if r.check_id == "diamond-quantum-plane"
    )
    assert rec.status == "fail"
    assert "uncertified" in rec.witness


# -- powers ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "preset, expr",
    [
        ("qe2-nonstd", "v"),
        ("qe2-nonstd", "-3*omega*n"),
        ("qe2-nonstd", "omega^-1*vb^2"),
        ("qe2-nonstd", "2/3"),
        ("qe2-nonstd", "v*n"),  # two generators: multiplied up
        ("qe2-nonstd", "v + n"),
        ("quantum-plane", "z*zb"),
        ("fun-e2", "3/2*v^-1*n*nb^2"),  # commutative tower
    ],
)
def test_powers_equal_multiplied_out_ones(preset, expr):
    t = catalog.get_preset(preset).tower
    x = t.poly(expr)
    exponents = list(range(7))
    if x.is_invertible_monomial():
        exponents += [-1, -2, -5]
    for n in exponents:
        base = x if n >= 0 else x.unit_inverse()
        want = NCPoly.one(t)
        for _ in range(abs(n)):
            want = want * base
        assert x ** n == want
