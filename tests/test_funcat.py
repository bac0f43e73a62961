import functools
import inspect

import numpy as np
import pytest

from qhilb import funcat, qsystem, splitting
from qhilb.cells import (
    dagger2,
    hcomp1,
    hcomp1_many,
    id1,
    id2,
    one_cell,
    residual,
    two_cell,
    vcomp,
)
from qhilb.errors import IllTypedPath, InvalidQSystem
from qhilb.funcat import (
    EndFQSystem,
    FunctorData,
    check_endf_qsystem,
    check_functor,
    check_modification,
    check_transformation,
    constant_functor_scenario,
    construct_G,
    construct_phi,
    construct_phibar,
    eval_expr,
    identity_transformation,
    qsystem_from_dualizable_transformation,
    split_modification_projection,
    tensor_transformations,
    verify_main_theorem,
    _pname,
)
from qhilb.generate import (
    product_scenario,
    random_cell,
    random_free_functor,
    random_presentation,
    random_sector_matrix,
    summed_transformation,
)
from qhilb.presentation import (
    EDagger,
    EGen,
    EHComp,
    EId,
    EVComp,
    GenOneCell,
    GenTwoCell,
    Path,
    PresentedTwoCat,
)
from qhilb.linalg import Tolerance
from qhilb.qsystem import QSystemData, check_qsystem, qsystem_from_dual, standard_dual_pair
from qhilb.splitting import split_qsystem

RNG = np.random.default_rng(31337)


def two_cell_cat():
    return PresentedTwoCat(
        ("a", "b"),
        (GenOneCell("X", "a", "b"), GenOneCell("Y", "b", "a")),
    )


def m2_qsystem():
    x = one_cell(1, 1, [(1, 1)] * 2)
    return qsystem_from_dual(standard_dual_pair(x))


# --- presentations ---------------------------------------------------------

def test_path_validation():
    cat = two_cell_cat()
    p = cat.path(("Y", "X"))
    assert p.src == "a" and p.tgt == "a"
    with pytest.raises(IllTypedPath):
        cat.path(("X", "X"))
    with pytest.raises(IllTypedPath):
        cat.path(("Z",))
    assert len(cat.composable_pairs()) == 2
    assert len(cat.composable_triples()) == 2


@pytest.mark.parametrize("node", [EVComp, EHComp])
def test_empty_composite_is_ill_typed(node):
    cat = two_cell_cat()
    with pytest.raises(IllTypedPath, match="empty composite"):
        cat.expr_type(node(()))
    with pytest.raises(IllTypedPath, match="empty composite"):
        PresentedTwoCat(cat.zero_cells, cat.gen_one_cells, (),
                        ((node(()), EId(Path(("X",), "a", "b"))),))


# --- functors --------------------------------------------------------------

def test_one_cell_image():
    cat = two_cell_cat()
    f = random_free_functor(RNG, cat)
    assert f.cell(cat.empty_path("a")) == id1(f.on0["a"])
    px = cat.path(("X",))
    assert f.cell(px) == f.on1["X"]
    pyx = cat.path(("Y", "X"))
    assert f.cell(pyx) == hcomp1(f.on1["Y"], f.on1["X"])


def test_free_functor_passes_exactly():
    for _ in range(5):
        cat = random_presentation(RNG)
        f = random_free_functor(RNG, cat)
        assert check_functor(f).max_residual < 1e-12


def test_constant_functor_identity_like():
    cat = two_cell_cat()
    f = FunctorData(cat, {a: id1(1).src for a in cat.zero_cells},
                    {g.label: id1(1) for g in cat.gen_one_cells})
    assert check_functor(f).max_residual == 0.0


def test_corrupt_unit_fails():
    cat = two_cell_cat()
    f = random_free_functor(RNG, cat)

    class Corrupt(FunctorData):
        def unit(self, a):
            u = super().unit(a)
            return two_cell(u.source, u.target, 0.5 * u.mat)

    bad = Corrupt(cat, f.on0, f.on1)
    rep = check_functor(bad)
    assert any(name.startswith("unit") and v > 1e-3
               for name, v in rep.residuals.items())


def test_relations_checked():
    cat0 = two_cell_cat()
    gens = cat0.gen_one_cells
    two = (GenTwoCell("f", Path(("X",), "a", "b"), Path(("X",), "a", "b")),)
    px = Path(("X",), "a", "b")
    rel = ((EVComp((EGen("f"), EDagger(EGen("f")))), EId(px)),)
    cat = PresentedTwoCat(("a", "b"), gens, two, rel)
    on0 = {"a": id1(2).src, "b": id1(2).src}
    on1 = {g.label: random_cell(RNG, 2, 2, 2) for g in gens}
    f = FunctorData(cat, on0, on1)
    from qhilb.generate import random_block_unitary
    f.on2 = {"f": random_block_unitary(RNG, f.cell(px))}
    rep = check_functor(f)
    assert rep["relation[0]"] < 1e-12  # unitary image satisfies f f* = id
    f.on2 = {"f": random_sector_matrix(RNG, f.cell(px), f.cell(px))}
    rep = check_functor(f)
    assert rep["relation[0]"] > 1e-6


def test_eval_expr_whiskering():
    cat0 = two_cell_cat()
    two = (GenTwoCell("f", Path(("X",), "a", "b"), Path(("X",), "a", "b")),)
    cat = PresentedTwoCat(("a", "b"), cat0.gen_one_cells, two)
    f = random_free_functor(RNG, cat)
    img = f.on2["f"]
    py = cat.path(("Y",))
    whiskered = eval_expr(f, EHComp((EGen("f"), EId(py))))
    import numpy as np
    from qhilb.cells import hcomp2
    direct = hcomp2(img, id2(f.cell(py)))
    assert residual(whiskered, direct) < 1e-12


# --- transformations / modifications --------------------------------------

def test_identity_transformation_passes():
    cat = random_presentation(RNG, with_two_cell=False)
    f = random_free_functor(RNG, cat)
    rep = check_transformation(identity_transformation(f))
    assert rep.max_residual < 1e-12


def test_summed_transformation_valid():
    cat = random_presentation(RNG, with_two_cell=False)
    phi, p, kept = summed_transformation(RNG, cat, summands=3)
    assert check_transformation(phi).max_residual < 1e-12
    rep = check_modification(p, phi, phi)
    assert rep.max_residual < 1e-12


def test_summed_transformation_cells_serialize():
    # cells are cached by value, so a grading of numpy integers would be
    # handed to later, unrelated callers and break their JSON output
    cat = random_presentation(RNG, with_two_cell=False)
    phi, _, _ = summed_transformation(RNG, cat, summands=2)
    cells = list(phi.target.on1.values()) + list(phi.comp0.values())
    assert all(type(v) is int for c in cells for pair in c.grading for v in pair)


def test_tensor_with_identity():
    cat = random_presentation(RNG, with_two_cell=False)
    phi, _, _ = summed_transformation(RNG, cat, summands=2)
    ident = identity_transformation(phi.target)
    t = tensor_transformations(ident, phi)
    assert check_transformation(t).max_residual < 1e-12
    for a in cat.zero_cells:
        assert t.comp0[a].dim == phi.comp0[a].dim


def test_random_modification_fails_sliding():
    cat = random_presentation(RNG, with_two_cell=False)
    while not cat.gen_one_cells:
        cat = random_presentation(RNG, with_two_cell=False)
    phi, _, _ = summed_transformation(RNG, cat, summands=2)
    eta = {a: random_sector_matrix(RNG, phi.comp0[a], phi.comp0[a])
           for a in cat.zero_cells}
    rep = check_modification(eta, phi, phi)
    assert rep.max_residual > 1e-6
    assert all(k.startswith("norm") for k in rep.info)


def test_split_modification_identity_and_zero():
    cat = random_presentation(RNG, with_two_cell=False)
    phi, _, _ = summed_transformation(RNG, cat, summands=2)
    ident = {a: id2(phi.comp0[a]) for a in cat.zero_cells}
    x, iso = split_modification_projection(ident, phi)
    for a in cat.zero_cells:
        assert x.comp0[a].dim == phi.comp0[a].dim
    zero = {a: two_cell(phi.comp0[a], phi.comp0[a], np.zeros((phi.comp0[a].dim,) * 2))
            for a in cat.zero_cells}
    x0, _ = split_modification_projection(zero, phi)
    for a in cat.zero_cells:
        assert x0.comp0[a].dim == 0


def test_split_modification_recovers_summand():
    cat = random_presentation(RNG, with_two_cell=False)
    phi, p, kept = summed_transformation(RNG, cat, summands=3)
    x, iso = split_modification_projection(p, phi)
    assert check_transformation(x).max_residual < 1e-8
    rep = check_modification(iso, x, phi)
    assert rep.max_residual < 1e-8
    for a in cat.zero_cells:
        u = iso[a].mat
        assert np.linalg.norm(u.conj().T @ u - np.eye(x.comp0[a].dim)) < 1e-8
        assert np.linalg.norm(u @ u.conj().T - p[a].mat) < 1e-8
        assert x.comp0[a].dim == len(kept) * phi.comp0[a].dim // 3


# --- End(F) Q-systems ------------------------------------------------------

def test_constant_scenario_trivial_qsystem():
    from qhilb.qsystem import trivial_qsystem
    cat = two_cell_cat()
    f, endf = constant_functor_scenario(cat, trivial_qsystem(2))
    assert check_endf_qsystem(endf).max_residual < 1e-12


def test_constant_scenario_m2():
    cat = two_cell_cat()
    f, endf = constant_functor_scenario(cat, m2_qsystem())
    assert check_endf_qsystem(endf).max_residual < 1e-12
    out = verify_main_theorem(endf)
    assert out.passes(1e-7)
    ks = {out.gconstruction.splits[a].k.n for a in cat.zero_cells}
    assert ks == {1}


def test_product_scenario_valid_and_corruptible():
    rng = np.random.default_rng(8)
    cat, f, endf = product_scenario(rng)
    rep = check_endf_qsystem(endf)
    assert rep.max_residual < 1e-9
    # corrupt one crossing: coherence fails
    g0 = cat.gen_one_cells[0]
    p0 = cat.path((g0.label,))
    cross = endf.psi.comp1[p0]
    from qhilb.generate import random_block_unitary
    endf.psi.comp1[p0] = vcomp(random_block_unitary(rng, cross.target), cross)
    rep = check_endf_qsystem(endf)
    assert rep.max_residual > 1e-6


def test_product_scenario_keeps_to_its_budget():
    # these seeds once drew a psi of dimension 32, or a psi . psi . psi
    # (which the bending identities for gamma build) above 300
    for seed in (300, 362, 377):
        cat, f, endf = product_scenario(np.random.default_rng(seed))
        for a in cat.zero_cells:
            psi = endf.psi.comp0[a]
            assert psi.dim <= 20
            assert hcomp1_many(psi, psi, psi).dim <= 300


def test_construct_G_gates_on_invalid():
    cat = two_cell_cat()
    f, endf = constant_functor_scenario(cat, m2_qsystem())
    bad_m = {a: two_cell(endf.m[a].source, endf.m[a].target,
                         endf.m[a].mat + 0.01) for a in cat.zero_cells}
    bad = EndFQSystem(endf.psi, bad_m, endf.i)
    with pytest.raises(InvalidQSystem):
        construct_G(bad)


def test_construct_G_keeps_the_split_gate():
    # a Q-system that passes the construction's 100 atol gate but not
    # the split's 10 atol fails as the public split_qsystem fails on it
    cat = two_cell_cat()
    f, endf = constant_functor_scenario(cat, m2_qsystem())
    bad_m = {a: two_cell(endf.m[a].source, endf.m[a].target, endf.m[a].mat * (1 + 1e-8))
             for a in cat.zero_cells}
    bad = EndFQSystem(endf.psi, bad_m, endf.i)
    worst = check_endf_qsystem(bad).max_residual
    tol = Tolerance(atol=worst / 50)
    a = cat.zero_cells[0]
    assert check_qsystem(bad.at(a)).max_residual > 10 * tol.atol
    with pytest.raises(InvalidQSystem, match="fails with residual") as want:
        split_qsystem(bad.at(a), tol)
    with pytest.raises(InvalidQSystem) as got:
        construct_G(bad, tol)
    assert str(got.value) == str(want.value)


def test_verify_main_theorem_checks_each_qsystem_once(monkeypatch):
    # construct_G's split reuses the residuals of its own input check
    calls = []

    def counted(q):
        calls.append(q)
        return check_qsystem(q)

    monkeypatch.setattr(qsystem, "check_qsystem", counted)
    zero_cells = 0
    for seed in range(10):
        cat, f, endf = product_scenario(np.random.default_rng(seed))
        assert verify_main_theorem(endf).passes(1e-7)
        zero_cells += len(cat.zero_cells)
    assert zero_cells == len(calls) == 26


def test_verify_main_theorem_builds_each_qsystem_report_once(monkeypatch):
    # the input check and the split of a zero-cell read the one cached
    # QSystemData.residuals of the Q-system that EndFQSystem.at hands out
    built = []
    build = QSystemData.residuals.func

    def counted(q):
        built.append(q)
        return build(q)

    residuals = functools.cached_property(counted)
    residuals.__set_name__(QSystemData, "residuals")
    monkeypatch.setattr(QSystemData, "residuals", residuals)
    zero_cells = 0
    for seed in range(10):
        cat, f, endf = product_scenario(np.random.default_rng(seed))
        out = verify_main_theorem(endf)
        assert out.passes(1e-7)
        assert built[zero_cells:] == [endf.at(a) for a in cat.zero_cells]
        zero_cells += len(cat.zero_cells)
    assert len(built) == 26


def test_verify_main_theorem_builds_each_endf_tensor_once(monkeypatch):
    # the split of each zero-cell builds the tensor of the one
    # QSystemData that EndFQSystem.at hands out for it, once
    built = []
    build = splitting.regular_reps

    def counted(q):
        built.append(q)
        return build(q)

    monkeypatch.setattr(splitting, "regular_reps", counted)
    cat, f, endf = product_scenario(np.random.default_rng(1))
    assert verify_main_theorem(endf).passes(1e-7)
    assert len(cat.zero_cells) == 2
    assert built == [endf.at(a) for a in cat.zero_cells]


def test_verify_main_theorem_builds_each_dual_qsystem_once(monkeypatch):
    # the gamma_action section reads the dual-pair Q-system of the split
    calls = []

    def counted(pair):
        calls.append(pair)
        return qsystem_from_dual(pair)

    for module in (funcat, splitting):
        monkeypatch.setattr(module, "qsystem_from_dual", counted)
    cat, f, endf = product_scenario(np.random.default_rng(1))
    out = verify_main_theorem(endf)
    assert out.passes(1e-7)
    splits = out.gconstruction.splits
    assert calls == [splits[a].pair for a in cat.zero_cells]
    for a in cat.zero_cells:
        pair = splits[a].pair
        assert splits[a].dual.Q is hcomp1(pair.X, pair.Xbar)


def test_trivial_endf_recovers_F():
    # psi_a = unit: G has the same zero-cell dimensions as F and all
    # path projections are full
    cat = two_cell_cat()
    f = random_free_functor(RNG, cat)
    ident = identity_transformation(f)
    m = {}
    i = {}
    for a in cat.zero_cells:
        u = id1(f.on0[a])
        from qhilb.cells import unitor_left
        m[a] = unitor_left(u)
        i[a] = id2(u)
    endf = EndFQSystem(ident, m, i)
    out = verify_main_theorem(endf)
    assert out.passes(1e-8)
    gc = out.gconstruction
    for a in cat.zero_cells:
        assert gc.splits[a].k.n == f.on0[a].n
    for g in cat.gen_one_cells:
        p = cat.path((g.label,))
        assert gc.cell(p).dim == f.cell(p).dim


def test_verify_main_theorem_product_scenarios():
    rng = np.random.default_rng(77)
    for _ in range(3):
        cat, f, endf = product_scenario(rng)
        out = verify_main_theorem(endf)
        assert out.passes(1e-7), out.worst()


def test_verify_main_theorem_checks_each_identity_once(monkeypatch):
    # the tensorator identities of G are reported once, under functor.*,
    # and gamma's algebra-map identities once, under qsystem_iso.*
    calls = []
    check_input = funcat.check_endf_qsystem

    def counted(*args, **kwargs):
        calls.append(args)
        return check_input(*args, **kwargs)

    monkeypatch.setattr(funcat, "check_endf_qsystem", counted)
    cat, f, endf = product_scenario(np.random.default_rng(1))
    assert cat.composable_triples() and cat.gen_two_cells
    out = verify_main_theorem(endf)
    assert len(calls) == 1
    assert {name[len("input."):]: value for name, value in out.residuals.items()
            if name.startswith("input.")} == check_input(endf).residuals
    assert list(dict.fromkeys(name.split(".")[0] for name in out)) == [
        "input", "gamma_bend", "projection", "isometry_product", "gamma_action",
        "crossing_transport", "functor", "transformation", "duality",
        "modification", "qsystem_iso"]
    names = {name for name, *_ in out.rows(1.0)}
    for p, q in cat.composable_pairs():
        assert f"functor.tensorator_unitary[{_pname(p)},{_pname(q)}]" in names
    for p, q, r in cat.composable_triples():
        assert f"functor.tensorator_assoc[{_pname(p)},{_pname(q)},{_pname(r)}]" in names
    for a in cat.zero_cells:
        assert {f"qsystem_iso.[{a}].multiplication", f"qsystem_iso.[{a}].unit"} <= names


def test_G_tensorator_built_once_per_pair(monkeypatch):
    cat, f, endf = product_scenario(np.random.default_rng(1))
    assert cat.composable_pairs()
    out = verify_main_theorem(endf)
    gc = construct_G(endf)
    for p, q in cat.composable_pairs():
        t = gc.tensorator(p, q)
        assert gc.tensorator(p, q) is t
        assert np.array_equal(t.mat, gc._build_tensorator(p, q).mat)
    # the report is the one built without the memo
    monkeypatch.setattr(funcat.GConstruction, "tensorator",
                        funcat.GConstruction._build_tensorator)
    assert list(verify_main_theorem(endf).rows(1.0)) == list(out.rows(1.0))


def test_roundtrip_dualizable_transformation():
    # synthesize psi = phibar . phi from the constructed dual pair and
    # verify the whole theorem on it
    rng = np.random.default_rng(123)
    cat, f, endf = product_scenario(rng)
    gc = construct_G(endf)
    phi = construct_phi(gc)
    phibar = construct_phibar(gc)
    q2 = qsystem_from_dualizable_transformation(phi, phibar)
    rep = check_endf_qsystem(q2)
    assert rep.max_residual < 1e-8
    out = verify_main_theorem(q2)
    assert out.passes(1e-7), out.worst()
    # the reconstruction matches the target functor up to block
    # relabeling: same zero-cells, same sorted sector dimension multisets
    gc2 = out.gconstruction
    for a in cat.zero_cells:
        assert gc2.splits[a].k.n == gc.splits[a].k.n
    for g in cat.gen_one_cells:
        p = cat.path((g.label,))
        dims1 = sorted(map(len, gc.cell(p).sectors().values()))
        dims2 = sorted(map(len, gc2.cell(p).sectors().values()))
        assert dims1 == dims2


def test_construct_phi_components_unitary():
    rng = np.random.default_rng(55)
    cat, f, endf = product_scenario(rng)
    gc = construct_G(endf)
    phi = construct_phi(gc)
    phibar = construct_phibar(gc)
    # construct_G returns G itself, the target of phi and source of phibar
    assert isinstance(gc, FunctorData) and gc.cat is cat and gc.F is f
    assert phi.source is f and phi.target is gc
    assert phibar.source is gc and phibar.target is f
    from qhilb.cells import is_unitary_residual
    for g in cat.gen_one_cells:
        p = cat.path((g.label,))
        assert is_unitary_residual(phi.comp1[p]) < 1e-8
        assert is_unitary_residual(phibar.comp1[p]) < 1e-8
    assert check_transformation(phi).max_residual < 1e-8
    assert check_transformation(phibar).max_residual < 1e-8


def test_phibar_is_bent_phi():
    # the dual crossing equals the adjoint crossing with both strands bent
    rng = np.random.default_rng(66)
    cat, f, endf = product_scenario(rng)
    gc = construct_G(endf)
    phi = construct_phi(gc)
    phibar = construct_phibar(gc)
    from qhilb.cells import hcomp2, unitor_left
    for gen in cat.gen_one_cells:
        p = cat.path((gen.label,))
        a, b = gen.src, gen.tgt
        fx, gx = f.cell(p), gc.cell(p)
        xbar_b, xbar_a = gc.xbar[b], gc.xbar[a]
        bent = vcomp(
            vcomp(unitor_left(hcomp1(fx, xbar_a)),
                  hcomp2(dagger2(gc.coev[b]), id2(hcomp1(fx, xbar_a)))),
            vcomp(hcomp2(id2(xbar_b), hcomp2(dagger2(phi.comp1[p]), id2(xbar_a))),
                  hcomp2(id2(hcomp1(xbar_b, gx)), dagger2(gc.ev[a]))),
        )
        assert residual(phibar.comp1[p], bent) < 1e-8


def test_the_entry_points_take_only_the_qsystem():
    # F is the Q-system's own functor and the presentation F's: no entry
    # point takes either again, so none can be handed one that disagrees
    from qhilb.serialize import scenario_to_json
    for func in (check_endf_qsystem, construct_G, verify_main_theorem, scenario_to_json,
                 funcat.GConstruction):
        assert list(inspect.signature(func).parameters)[0] == "q", func
        assert not {"cat", "f"} & set(inspect.signature(func).parameters), func
    assert list(inspect.signature(check_functor).parameters) == ["f"]
