import ast
import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

from _references import kernel_identity_residual_point

from hardymodel import checks, charfn, contraction, dilation, generators, hardy, linops, submodules
from hardymodel.checks import REGISTRY, CheckOutcome, GeneratorParams, _fold, _within
from hardymodel.cli import load_scenario, main, run_scenario

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ROOT / "scenarios"


def _outcomes_then_raise(items):
    """Yield the items, then raise if the consumer asks for one more."""
    yield from items
    raise AssertionError("advanced past the last outcome the fold should read")


class TestFold:
    def test_all_pass_takes_worst_and_smallest_cutoff(self):
        folded = _fold(
            [
                CheckOutcome(True, 1e-12, 0.0, -1),
                CheckOutcome(True, 3e-11, 2e-9, 14),
                CheckOutcome(True, 2e-11, 5e-9, 9),
                CheckOutcome(True, 0.0, 1e-9, -1),
                CheckOutcome(True, 1e-13, 0.0, 11),
            ]
        )
        assert folded == CheckOutcome(True, 3e-11, 5e-9, 9)

    def test_only_negative_cutoffs_give_minus_one(self):
        folded = _fold([CheckOutcome(True, 0.5), CheckOutcome(True, 0.25, 0.0, -1)])
        assert folded == CheckOutcome(True, 0.5, 0.0, -1)

    def test_empty_generator_passes(self):
        assert _fold(iter(())) == CheckOutcome(True, 0.0, 0.0, -1)

    def test_stops_at_first_failure(self):
        items = [
            CheckOutcome(True, 1e-3, 1e-4, 7),
            CheckOutcome(False, 2e-4, 3e-4, 12),
        ]
        # the fold reports what it saw up to and including the failure
        assert _fold(_outcomes_then_raise(items)) == CheckOutcome(False, 1e-3, 3e-4, 7)

    def test_fail_on_first_instance(self):
        items = [CheckOutcome(False, float("inf"))]
        assert _fold(_outcomes_then_raise(items)) == CheckOutcome(False, float("inf"), 0.0, -1)

    def test_nan_residual_fails_and_stays_visible(self):
        folded = _fold([_within(1e-3, 1.0), _within(float("nan"), 1.0), _within(0.5, 1.0)])
        assert not folded.passed and np.isnan(folded.residual)


#: (name, regime, default_tol) of every check, in registration order
REGISTERED = [
    ("tuple-validation", "matrix", 1e-10),
    ("norm-identity", "matrix", 1e-07),
    ("dilation-compress", "matrix", 1e-08),
    ("dilation-regularity", "matrix", 1e-08),
    ("dilation-minimality", "matrix", 1e-08),
    ("mobius-involution", "matrix", 1e-10),
    ("defect-transfer", "mixed", 1e-06),
    ("defect-span", "matrix", 1e-09),
    ("pseudometric", "matrix", 1e-12),
    ("charfn-kernel-identity", "matrix", 1e-10),
    ("charfn-boundary", "matrix", 1e-08),
    ("projection-identity", "mixed", 1e-06),
    ("quotient-model", "mixed", 1e-06),
    ("kernel-reproduction", "hardy", 1e-12),
    ("kernel-eigenrelation", "hardy", 1e-12),
    ("parity-family", "hardy", 1e-12),
    ("power-search", "hardy", 1e-12),
    ("beurling-extraction", "hardy", 1e-07),
    ("double-commutation-counterexample", "hardy", 1e-10),
    ("jordan-quotient", "hardy", 1e-10),
    ("kernel-fixed-point", "hardy", 1e-10),
    ("projector-product", "hardy", 1e-10),
    ("partial-product-cauchy", "hardy", 1e-10),
]

LIST_CHECKS = """\
beurling-extraction                [hardy ]  wandering generator recovery for inner-generated sections
charfn-boundary                    [matrix]  boundary unitarity of the characteristic function
charfn-kernel-identity             [matrix]  defect kernel factorization of the characteristic function
defect-span                        [matrix]  Moebius-shifted adjoint defects span the space over a grid
defect-transfer                    [mixed ]  adjoint defect norms transfer through the isometric coextension
dilation-compress                  [matrix]  isometric dilation compresses to tuple powers
dilation-minimality                [matrix]  shift orbit of the embedded space spans the safe truncation
dilation-regularity                [matrix]  regular dilation: disjointly supported power compressions
double-commutation-counterexample  [hardy ]  two-generator section fails double commutation
jordan-quotient                    [hardy ]  tensor quotient compressions are Jordan blocks tensor identity
kernel-eigenrelation               [hardy ]  adjoint shifts scale truncated kernels by conjugate coordinates
kernel-fixed-point                 [hardy ]  kernels are fixed by Moebius-shifted multiplier defect products
kernel-reproduction                [hardy ]  truncated kernels reproduce polynomial point values
mobius-involution                  [matrix]  disk-automorphism calculus is involutive and class preserving
norm-identity                      [matrix]  defect-orbit norm identity for the adjoint tuple
parity-family                      [hardy ]  parity isometries: square identity, isometry, joint defect collapse
partial-product-cauchy             [hardy ]  closed-form Cauchy increments of Moebius partial products (plumbing oracle)
power-search                       [hardy ]  adjoint-orbit power selection with verified defect lower bound
projection-identity                [mixed ]  embedding projector complements the symbol product
projector-product                  [hardy ]  projection of monomials factorizes over tensor quotients
pseudometric                       [matrix]  equivalence pseudometric symmetry and vanishing on the diagonal
quotient-model                     [mixed ]  analytic model complement equals the joint symbol range
tuple-validation                   [matrix]  class membership: contraction margins, stability certificate, double commutation
23 checks registered
"""


class TestRegistry:
    def test_names_regimes_and_default_tolerances(self):
        assert [(s.name, s.regime, s.default_tol) for s in REGISTRY.values()] == REGISTERED

    def test_list_checks_output(self, capsys):
        assert main(["list-checks"]) == 0
        assert capsys.readouterr().out == LIST_CHECKS


def test_parity_family_three_variables_is_exact():
    # the square identity and the isometry Gram are sparse 0/1 products;
    # their differences have no nonzero entry, so the residual is exactly 0
    p = GeneratorParams.from_dict({"num_vars": 3, "truncation_degree": 20, "coeff_dim": 1})
    out = REGISTRY["parity-family"].run(np.random.default_rng(1), p, 1e-12)
    assert out.passed
    assert out.residual == 0.0
    assert out.safe_cutoff == 17


#: safe_cutoff of each check of each bundled scenario, in declared order
BUNDLED_CUTOFFS = {
    "charfn-and-quotients": [-1, -1, 20, 22],
    "dilation-model": [-1, -1, -1, -1, -1, -1],
    "hardy-structure": [-1, 7, 5, -1, 9, -1, 11, 24, 13, -1],
    "norm-identity-smoke": [-1, -1, -1],
}


#: the library modules whose public functions the profiler follows
LIBRARY = (linops, contraction, hardy, dilation, charfn, submodules, generators)


def _public_functions() -> dict:
    """{code object: (module.name, {optional parameter: default})} of every
    function in a library module's __all__."""
    out = {}
    for module in LIBRARY:
        short = module.__name__.rsplit(".", 1)[-1]
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                params = inspect.signature(obj).parameters.values()
                optional = {p.name: p.default for p in params if p.default is not p.empty}
                out[obj.__code__] = (f"{short}.{name}", optional)
    return out


PUBLIC = _public_functions()


def _public_members() -> dict:
    """{code object: "module.Class.member"} of every function and property
    defined in the body of a public class of a library module; methods a
    dataclass generates are compiled elsewhere and are left out."""
    out = {}
    for module in LIBRARY:
        short = module.__name__.rsplit(".", 1)[-1]
        for name in module.__all__:
            cls = getattr(module, name)
            if not inspect.isclass(cls):
                continue
            for attr, value in vars(cls).items():
                func = value.fget if isinstance(value, property) else value
                if inspect.isfunction(func) and func.__code__.co_filename == module.__file__:
                    out[func.__code__] = f"{short}.{name}.{attr}"
    return out


MEMBERS = _public_members()


def _is_default(value, default) -> bool:
    if value is default:
        return True
    try:
        return bool(value == default)
    except ValueError:  # an array compares elementwise: not the default
        return False


@pytest.fixture(scope="module")
def bundled_run():
    """Reports of the bundled scenarios, run once under a profiler that
    records the code object of every Python function they call and, for
    each public function, the optional parameters some call sets away from
    their default ("module.function.parameter")."""
    called, turned = set(), set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)
            public = PUBLIC.get(frame.f_code)
            if public is not None:
                name, optional = public
                args = frame.f_locals
                turned.update(
                    f"{name}.{param}"
                    for param, default in optional.items()
                    if not _is_default(args[param], default)
                )

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        reports = {name: run_scenario(SCENARIOS / f"{name}.json") for name in BUNDLED_CUTOFFS}
    finally:
        sys.setprofile(previous)
    return reports, called, turned


@pytest.mark.parametrize("scenario", sorted(BUNDLED_CUTOFFS))
def test_bundled_scenario_statuses_and_cutoffs(bundled_run, scenario):
    report = bundled_run[0][scenario]
    assert [c["status"] for c in report["checks"]] == ["pass"] * len(BUNDLED_CUTOFFS[scenario])
    assert [c["safe_cutoff"] for c in report["checks"]] == BUNDLED_CUTOFFS[scenario]
    assert report["overall"] == "pass"


#: public functions that no bundled scenario calls, each with why it stays
UNREACHED_ALLOWED: dict[str, str] = {}

#: public class members that no bundled scenario calls, each with why it stays
UNREACHED_MEMBERS_ALLOWED = {
    "charfn.QuotientModelReport.passed": "verdict property the tests and acceptance suite read",
    "submodules.CommutationReport.passed": "verdict property the tests and acceptance suite read",
    "dilation.DilationReport.passed": "verdict property the tests and acceptance suite read",
    "dilation.DilationReport.minimality_ok": "verdict property the tests and acceptance suite read",
    "contraction.ValidationReport.summary": "the NotInClass message; bundled tuples are in the class",
}


def test_every_public_function_is_reached(bundled_run):
    # a public function that no check reaches is dead API: delete it, or
    # give the reason it stays in UNREACHED_ALLOWED
    called = bundled_run[1]
    unreached = {name for code, (name, _) in PUBLIC.items() if code not in called}
    assert unreached == set(UNREACHED_ALLOWED)


def test_every_public_class_member_is_reached(bundled_run):
    # the same for the methods and properties of the public classes: a
    # member only tests call belongs in tests/_references.py
    called = bundled_run[1]
    unreached = {name for code, name in MEMBERS.items() if code not in called}
    assert unreached == set(UNREACHED_MEMBERS_ALLOWED)


#: optional parameters that the bundled scenarios leave at their default,
#: each with why it stays a parameter
UNTURNED_ALLOWED = {
    "contraction.validate_tuple.tol": "scenario-driven: tuple-validation passes its check tolerance",
    "generators.tuple_ensemble.norm_cap": "scenario-driven: the generator record's norm_cap",
}


def test_every_optional_parameter_is_turned(bundled_run):
    # an optional parameter that no call sets away from its default is a
    # knob no caller turns: make it a module constant, or give the reason
    # it stays in UNTURNED_ALLOWED (functions in UNREACHED_ALLOWED are exempt)
    turned = bundled_run[2]
    unturned = {
        f"{name}.{param}"
        for name, optional in PUBLIC.values()
        if name not in UNREACHED_ALLOWED
        for param in optional
        if f"{name}.{param}" not in turned
    }
    assert unturned == set(UNTURNED_ALLOWED)


def _dataclass_fields(path: Path) -> set:
    """"Class.field" of every annotated field of every public dataclass
    defined at the top level of a source file."""
    out = set()
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            out.update(
                f"{node.name}.{stmt.target.id}"
                for stmt in node.body
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            )
    return out


def _attributes_read(paths) -> set:
    """Every attribute name some expression in the files loads."""
    return {
        node.attr
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


#: public dataclass fields that no code in src/ or tests/ reads, each with
#: why it stays
UNREAD_FIELDS_ALLOWED: dict = {}


def test_every_public_dataclass_field_is_read():
    # a report field that nothing reads costs the work that fills it: drop
    # both, or give the reason it stays in UNREAD_FIELDS_ALLOWED.  Reads are
    # matched by attribute name, over src/hardymodel and tests/
    sources = sorted((ROOT / "src" / "hardymodel").glob("*.py"))
    read = _attributes_read([*sources, *sorted((ROOT / "tests").glob("*.py"))])
    fields = set().union(*map(_dataclass_fields, sources))
    assert {f for f in fields if f.split(".", 1)[1] not in read} == set(UNREAD_FIELDS_ALLOWED)


def test_defect_transfer_builds_each_multiplier_once(monkeypatch):
    # one defect_transfer_check per instance takes all its probes: the
    # dilation-model run (4 instances of one or two variables, 2 probes
    # each) builds each of its 6 Moebius multipliers and 4 normalized
    # embeddings once, not once per probe
    builds, embeddings = [], []
    build, embed = dilation.one_variable_symbol, dilation.DilationModel.normalized_embedding
    monkeypatch.setattr(dilation, "one_variable_symbol", lambda *a: builds.append(a) or build(*a))
    monkeypatch.setattr(
        dilation.DilationModel, "normalized_embedding", lambda m: embeddings.append(m) or embed(m)
    )
    scenario = load_scenario(SCENARIOS / "dilation-model.json")
    idx = [c.name for c in scenario.checks].index("defect-transfer")
    spec = REGISTRY["defect-transfer"]
    rng = np.random.default_rng([scenario.seed, idx])
    assert spec.run(rng, scenario.generator, spec.default_tol).passed
    assert (len(builds), len(embeddings)) == (6, 4)


@pytest.mark.parametrize("n, m", [(1, 1), (2, 3)])
def test_norm_identity_tail_of_the_zero_tuple_is_its_round_off_margin(monkeypatch, n, m):
    # for T = 0 every level past 0 is an exact zero, so the walk certifies
    # d = 0: the tail is the partial sum's round-off margin (d + 1) m eps
    zero = contraction.ContractionTuple((np.zeros((m, m), dtype=complex),) * n)
    monkeypatch.setattr(checks, "tuple_ensemble", lambda *args: [zero])
    out = REGISTRY["norm-identity"].run(np.random.default_rng(0), GeneratorParams(), 1e-7)
    assert out.passed and out.residual <= out.tail_bound == m * np.finfo(float).eps


def test_kernel_identity_block_is_the_scalar_draws():
    # one (20, 4) block per instance is the stream of 80 scalar draws, a's
    # radius and angle, then b's, pair by pair
    block = np.random.default_rng(11).uniform(size=(20, 4))
    rng = np.random.default_rng(11)
    assert block.tobytes() == np.array([rng.uniform() for _ in range(80)]).tobytes()


def test_kernel_identity_yields_one_outcome_per_pair_in_draw_order():
    p = GeneratorParams(instances=2, dims=(3,))
    outcomes = list(checks._charfn_kernel_identity(np.random.default_rng(7), p, 1e-10))
    rng = np.random.default_rng(7)
    want = []
    for _ in range(p.instances):
        cf = checks._random_charfn(rng, p)
        for _ in range(20):
            pa = 0.85 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            pb = 0.85 * rng.uniform() * np.exp(2j * np.pi * rng.uniform())
            want.append(kernel_identity_residual_point(cf, pa, pb))
    np.testing.assert_allclose([o.residual for o in outcomes], want, rtol=0, atol=1e-13)
    # a tolerance every pair fails stops the fold at the first pair
    first = REGISTRY["charfn-kernel-identity"].run(np.random.default_rng(7), p, 1e-300)
    assert not first.passed and first.residual == outcomes[0].residual
