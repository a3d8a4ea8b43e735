import csv
import io
import json
import math
import os
import subprocess
import sys

import pytest

import taylormeasure
from taylormeasure import kernel, montecarlo, serialize
from taylormeasure.cli import main as cli_main
from taylormeasure.montecarlo import RngSpec, estimate_measure

ONES = json.dumps({
    "gamma": 1.0,
    "coefficients": {"prefix": [], "tail": {"kind": "constant", "M": 1.0}},
    "certificate": {"kind": "bounded", "M": 1.0},
})
# terms 1, -2, 1.5 at gamma = 1 (coefficients n! * term)
SIGNED = json.dumps({
    "gamma": 1.0,
    "coefficients": {"prefix": [1.0, -2.0, 3.0], "tail": {"kind": "zero"}},
    "certificate": {"kind": "finite_support"},
})
POISSON2 = json.dumps({
    "zeta": 2.0,
    "coefficients": {"prefix": [], "tail": {"kind": "constant", "M": 1.0}},
    "certificate": {"kind": "bounded", "M": 1.0},
})
POISSON1 = json.dumps({
    "zeta": 1.0,
    "coefficients": {"prefix": [], "tail": {"kind": "constant", "M": 1.0}},
    "certificate": {"kind": "bounded", "M": 1.0},
})
ONES_SEQ = taylormeasure.constant_sequence(1.0)
FIRST_THREE = '{"kind": "finite", "elements": [0, 1, 2]}'


def run_cli(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old_out, old_err, old_in = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr = out, err
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if exc.code is not None else 0
    finally:
        sys.stdout, sys.stderr, sys.stdin = old_out, old_err, old_in
    return code, out.getvalue(), err.getvalue()


class TestParsing:
    def test_bad_gamma_names_field(self):
        code, _, err = run_cli(["eval", '{"gamma": "x"}'])
        assert code == 2
        assert "measure.gamma" in err

    def test_bad_tail_kind_names_field(self):
        doc = ('{"gamma": 1.0, "coefficients": {"prefix": [], '
               '"tail": {"kind": "wat"}}, "certificate": {"kind": "unverified"}}')
        code, _, err = run_cli(["eval", doc])
        assert code == 2
        assert "measure.coefficients.tail.kind" in err

    def test_finite_support_requires_zero_tail(self):
        doc = ('{"gamma": 1.0, "coefficients": {"prefix": [], '
               '"tail": {"kind": "constant", "M": 1.0}}, '
               '"certificate": {"kind": "finite_support"}}')
        code, _, err = run_cli(["eval", doc])
        assert code == 2
        assert "measure.certificate.kind" in err

    def test_negative_set_element_names_field(self):
        code, _, err = run_cli(
            ["eval", ONES, "--set", '{"kind": "finite", "elements": [0, -3]}']
        )
        assert code == 2
        assert "set.elements[1]" in err

    def test_missing_certificate(self):
        doc = '{"gamma": 1.0, "coefficients": {"prefix": [], "tail": {"kind": "zero"}}}'
        code, _, err = run_cli(["eval", doc])
        assert code == 2
        assert "measure.certificate" in err

    def test_unknown_entry_rejected(self):
        doc = json.loads(ONES)
        doc["extra"] = 1
        code, _, err = run_cli(["eval", json.dumps(doc)])
        assert code == 2
        assert "measure.extra" in err

    def test_invalid_json_diagnostic(self):
        code, _, err = run_cli(["eval", "{not json"])
        assert code == 2
        assert "invalid JSON" in err

    def test_unknown_subcommand_exits_2(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_seed_required_for_sampling(self):
        code, _, _ = run_cli(["sample", POISSON2, "--L", "5"])
        assert code == 2

    def test_missing_file_is_input_error(self):
        code, _, err = run_cli(["eval", "/no/such/file.json"])
        assert code == 2
        assert "measure" in err


class TestValues:
    def test_eval_constant_ones_gives_e(self):
        code, out, _ = run_cli(["eval", ONES, "--eps", "1e-12"])
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(math.e, rel=1e-12)
        assert doc["abs_error"] <= 1e-11

    def test_decompose_signed_terms(self):
        code, out, _ = run_cli(["decompose", SIGNED, "--set", FIRST_THREE])
        assert code == 0
        doc = json.loads(out)
        assert doc["pos_mass"] == pytest.approx(2.5, abs=1e-14)
        assert doc["neg_mass"] == pytest.approx(2.0, abs=1e-14)
        assert doc["total_variation"] == pytest.approx(4.5, abs=1e-13)

    def test_unverified_on_infinite_set_exits_3(self):
        doc = ('{"gamma": 1.0, "coefficients": {"prefix": [], '
               '"tail": {"kind": "constant", "M": 1.0}}, '
               '"certificate": {"kind": "unverified"}}')
        code, _, err = run_cli(["eval", doc])
        assert code == 3
        assert "DivergenceUnknown" in err

    def test_out_of_domain_exits_3(self):
        code, _, err = run_cli(
            ["fn-eval", '{"kind": "builtin", "name": "geometric"}', "--x", "2.0"]
        )
        assert code == 3
        assert "OutOfDomain" in err

    def test_overflowing_poisson_scale_exits_3(self):
        pmf = json.dumps({**json.loads(POISSON2), "zeta": 720.0})
        code, _, err = run_cli(["mc-normalizer", pmf, "--L", "100", "--seed", "1"])
        assert code == 3
        assert "NonFiniteResult" in err
        assert "zeta = 720.0" in err

    def test_inner_product_of_unit_measures(self):
        code, out, _ = run_cli(["inner", ONES, ONES])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.e, rel=1e-12)

    def test_pmf_masses_match_poisson(self):
        code, out, _ = run_cli(["pmf", POISSON2, "--upto", "3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == pytest.approx(math.exp(2.0), rel=1e-12)
        for n, mass in enumerate(doc["masses"]):
            want = math.exp(-2.0) * 2.0 ** n / math.factorial(n)
            assert mass == pytest.approx(want, rel=1e-12)

    def test_stm_moments_ar1(self):
        code, out, _ = run_cli(
            ["stm-moments", '{"kind": "ar1", "phi": 0.5, "sigma2": 1.0, "t": 3}']
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["value"] == 0.0
        assert doc["variance"] == pytest.approx(1.3125, abs=1e-14)

    def test_fn_recenter_polynomial(self):
        code, out, _ = run_cli(
            ["fn-recenter", '{"kind": "polynomial", "coeffs": [1.0, 0.0, 3.0]}',
             "--center", "1.0", "--terms", "3"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficients"] == [4.0, 6.0, 6.0]
        assert doc["value"] == 4.0

    def test_fn_lpnorm_identity(self):
        code, out, _ = run_cli(
            ["fn-lpnorm", '{"kind": "polynomial", "coeffs": [0.0, 1.0]}',
             "--p", "2", "--K", "0", "1"]
        )
        assert code == 0
        value = json.loads(out)["value"]
        assert value == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)

    def test_axioms_report_small_residuals(self):
        code, out, _ = run_cli(["axioms", "--seed", "13", "--count", "6"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pairs_checked"] == 15
        assert doc["value"] <= 1e-9
        assert doc["cauchy_schwarz_min_slack"] >= -1e-12

    def test_stdin_document(self):
        code, out, _ = run_cli(["eval", "-"], stdin_text=ONES)
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.e, rel=1e-12)

    def test_file_document(self, tmp_path):
        path = tmp_path / "measure.json"
        path.write_text(ONES, encoding="utf-8")
        code, out, _ = run_cli(["eval", str(path)])
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(math.e, rel=1e-12)


class TestHandlerValues:
    """Each subcommand's JSON against the library call it wraps, in-process."""

    def _doc(self, argv):
        code, out, err = run_cli(argv)
        assert code == 0, err
        return json.loads(out)

    def test_tv(self):
        doc = self._doc(["tv", SIGNED])
        mv = taylormeasure.total_variation(
            serialize.parse_measure(json.loads(SIGNED)), taylormeasure.NatSet.all(), 1e-12)
        assert (doc["value"], doc["abs_error"]) == (mv.value, mv.abs_error)
        assert doc["value"] == pytest.approx(4.5, abs=1e-13)

    def test_norm(self):
        doc = self._doc(["norm", ONES])
        mv = taylormeasure.norm(
            serialize.parse_measure(json.loads(ONES)), taylormeasure.NatSet.all(), 1e-12)
        assert (doc["value"], doc["abs_error"]) == (mv.value, mv.abs_error)
        assert doc["value"] == pytest.approx(math.sqrt(math.e), rel=1e-12)

    def test_dist(self):
        doc = self._doc(["dist", ONES, SIGNED])
        T1 = serialize.parse_measure(json.loads(ONES))
        T2 = serialize.parse_measure(json.loads(SIGNED))
        mv = taylormeasure.distance(T1, T2, taylormeasure.NatSet.all(), 1e-12)
        assert (doc["value"], doc["abs_error"]) == (mv.value, mv.abs_error)
        assert doc["value"] > 0.0

    def test_fn_mul(self):
        poly = '{"kind": "polynomial", "coeffs": [1.0, 2.0]}'
        doc = self._doc(["fn-mul", GRID_FN, poly, "--x", "0.5", "--terms", "4"])
        product = taylormeasure.multiply(serialize.parse_function(json.loads(GRID_FN)),
                                         serialize.parse_function(json.loads(poly)))
        mv = taylormeasure.eval_rep(product, 0.5, 1e-12)
        assert (doc["value"], doc["abs_error"]) == (mv.value, mv.abs_error)
        assert doc["coefficients"] == [product.coefficients.a(n) for n in range(4)]
        assert doc["center"] == product.center
        assert doc["value"] == pytest.approx(2.0 * math.exp(0.5), rel=1e-12)

    def test_fn_supdist(self):
        doc = self._doc(["fn-supdist", GRID_FN, "--oracle", "exp", "--grid", "11"])
        value = taylormeasure.sup_distance_on_grid(
            serialize.parse_function(json.loads(GRID_FN)), math.exp, (0.0, 1.0), m=11, eps=1e-12)
        assert doc["value"] == value
        assert value <= 1e-12

    def test_eval_on_a_finite_set_past_the_horizon(self):
        # the tail of e at gamma = 1 falls below the normal range past
        # n = 170, the horizon: the sum skips 171, 500 and 2000
        elements = [0, 1, 2, 170, 171, 500, 2000]
        B = json.dumps({"kind": "finite", "elements": elements})
        doc = self._doc(["eval", ONES, "--set", B])
        T = serialize.parse_measure(json.loads(ONES))
        NB = taylormeasure.NatSet.finite(elements)
        mv = taylormeasure.evaluate(T, NB)
        assert (doc["value"], doc["abs_error"]) == (mv.value, mv.abs_error)
        assert doc["value"] == 2.5
        assert kernel.underflow_horizon(T.coefficients, T.gamma, 2000).last_index == 170
        assert doc["abs_error"] >= 2.0 ** -1022

    def test_mc_measure_at_zeta_400(self):
        # e**400 is finite, its square is not: the stderr never forms it
        big = json.dumps({**json.loads(POISSON2), "zeta": 400.0})
        B = '{"kind": "finite", "elements": [400]}'
        for extra in ([], ["--estimate-normalizers"]):
            doc = self._doc(["mc-measure", big, POISSON1, "--set", B, "--L1", "100",
                             "--L2", "100", "--seed", "1"] + extra)
            est = estimate_measure(400.0, ONES_SEQ, 1.0, ONES_SEQ, taylormeasure.NatSet.finite([400]),
                                   100, 100, RngSpec(seed=1),
                                   estimate_normalizers=bool(extra))
            assert (doc["value"], doc["stderr"]) == (est.point, est.stderr)
            assert 0.0 < doc["stderr"] < math.inf

    def test_non_finite_mc_estimate_exits_3(self, monkeypatch):
        # a mean of b_N beyond 1.8e308 / e**700 makes the mass estimate overflow
        monkeypatch.setattr(montecarlo, "_poisson_b_moments", lambda *a: (1e10, 0.0))
        big = json.dumps({**json.loads(POISSON2), "zeta": 700.0})
        code, _, err = run_cli(["mc-measure", big, POISSON1, "--L1", "100", "--L2", "100",
                                "--seed", "1", "--estimate-normalizers"])
        assert code == 3
        assert "NonFiniteResult" in err


class TestDeterminism:
    def test_sample_rerun_is_bit_identical(self):
        argv = ["sample", POISSON2, "--L", "50", "--seed", "7"]
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert out1 == out2

    def test_mc_measure_thread_invariant(self):
        base = ["mc-measure", POISSON2, POISSON1, "--set", FIRST_THREE,
                "--L1", "20000", "--L2", "20000", "--seed", "99"]
        _, out1, _ = run_cli(base + ["--threads", "1"])
        _, out4, _ = run_cli(base + ["--threads", "4"])
        assert out1 == out4

    def test_stm_sim_rerun_is_bit_identical(self):
        argv = ["stm-sim", '{"kind": "gaussian_iid", "mu": 1.0, "sigma": 1.0, '
                '"gamma": 1.0}', "--L", "2000", "--seed", "5"]
        _, out1, _ = run_cli(argv)
        _, out2, _ = run_cli(argv)
        assert out1 == out2

    def test_result_document_reparses_and_reruns(self):
        code, out, _ = run_cli(["mc-normalizer", POISSON2, "--L", "5000",
                                "--seed", "3"])
        assert code == 0
        doc = json.loads(out)
        echoed_pmf = json.dumps(doc["inputs"]["pmf"])
        code2, out2, _ = run_cli(["mc-normalizer", echoed_pmf, "--L",
                                  str(doc["inputs"]["L"]), "--seed",
                                  str(doc["seed"])])
        assert code2 == 0
        assert out2 == out

    def test_subprocess_entry_point(self):
        argv = [sys.executable, "-m", "taylormeasure.cli", "sample", POISSON2,
                "--L", "20", "--seed", "11"]
        r1 = subprocess.run(argv, capture_output=True, text=True)
        r2 = subprocess.run(argv, capture_output=True, text=True)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
        assert json.loads(r1.stdout)["seed"] == 11


class TestCsv:
    def test_pmf_csv_is_rfc4180(self, tmp_path):
        path = tmp_path / "out.csv"
        code, _, _ = run_cli(["pmf", POISSON2, "--upto", "2", "--csv", str(path)])
        assert code == 0
        raw = path.read_bytes()
        assert raw.endswith(b"\r\n")
        assert b"\r\n" in raw
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "mass"]
        assert len(rows) == 4
        assert float(rows[1][1]) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_scalar_csv_header(self, tmp_path):
        path = tmp_path / "out.csv"
        code, _, _ = run_cli(["eval", ONES, "--csv", str(path)])
        assert code == 0
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["command", "value", "abs_error"]
        assert rows[1][0] == "eval"
        assert float(rows[1][1]) == pytest.approx(math.e, rel=1e-12)


# The public names of the package, frozen: these must stay importable.
PUBLIC_NAMES = """
    AnalyticRep Ar1 BernoulliStep Bounded BrownianApprox CenterMismatch
    CoefficientSequence ConstantTail CustomTail DegenerateDistribution
    DivergenceUnknown FactorialGeometric FiniteSupport GaussianIID GaussianIndep
    GeometricEnvelope GeometricTail HilbertAxiomReport IndicatorGamma
    InvalidDocument InvalidPmf JordanPair JordanPmf McEstimate MeasureValue NatSet
    NegativeRadicand NoSamplerAvailable NormalStep OutOfDomain PowerSeriesPmf
    QuadratureStall QuantileTailUnresolved RandomWalk RngSpec SamplePath
    SignedLogTerm SimpleFunction TaylorMeasure TaylorMeasureError
    TaylorProbabilityPair TermBackedSequence TruncationPlan UniformStep
    UnsupportedSpec Unverified ZeroTail brownian_marginal_moments builtin cdf
    constant_sequence cos_rep distance estimate_measure estimate_normalizer_poisson
    eval_rep evaluate exp_rep finite_sequence from_pmf from_term_function
    gaussian_truncation_plan geometric_rep geometric_sequence hilbert_axiom_report
    inner_product jordan_decompose linear_combination linear_combine
    lp_norm_on_interval measure_from_densities multiply norm normalizer
    plan_truncation pmf_eval polynomial_rep power probability_pair quantile
    rational_approximation recenter rule_sequence sample_pmf sample_stm
    sample_stm_batch simulate_brownian simulate_brownian_batch simulate_random_walk
    simulate_random_walk_batch sin_rep stm_coefficients stm_moments sum_terms
    sup_distance_on_grid tail_bound taylor_derivative term term_value
    total_variation truncate_rep zero_measure
""".split()

GRID_FN = '{"kind": "builtin", "name": "exp"}'
DETERMINISTIC_RUNS = [
    ["eval", ONES],
    ["decompose", SIGNED, "--set", FIRST_THREE],
    ["tv", SIGNED],
    ["inner", ONES, SIGNED],
    ["norm", ONES],
    ["dist", ONES, SIGNED],
    ["pmf", POISSON2, "--upto", "3"],
    ["fn-eval", GRID_FN, "--x", "0.5"],
    ["fn-mul", GRID_FN, '{"kind": "polynomial", "coeffs": [1.0, 2.0]}'],
    ["fn-recenter", '{"kind": "polynomial", "coeffs": [1.0, 0.0, 3.0]}',
     "--center", "1.0"],
    ["fn-supdist", GRID_FN, "--oracle", "exp", "--grid", "11"],
    ["fn-lpnorm", GRID_FN, "--p", "2"],
    ["axioms", "--seed", "3", "--count", "4"],
]

_CHILD = """
import contextlib, io, json, sys
from taylormeasure.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    if code != 0:
        sys.exit(f"{argv[0]} exited {code}")
print(json.dumps(sorted(
    m for m in sys.modules
    if m.split(".")[0] == "numpy"
    or m in ("taylormeasure.montecarlo", "taylormeasure.stochastic"))))
"""


class TestLazyImports:
    def test_deterministic_subcommands_never_load_numpy(self):
        src = os.path.dirname(os.path.dirname(taylormeasure.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        r = subprocess.run(
            [sys.executable, "-c", _CHILD, json.dumps(DETERMINISTIC_RUNS)],
            capture_output=True, text=True, env=env, timeout=120)
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout) == []

    def test_public_names_are_exported(self):
        namespace = {}
        exec("from taylormeasure import *", namespace)
        assert set(PUBLIC_NAMES) <= set(namespace)
        assert set(PUBLIC_NAMES) <= set(dir(taylormeasure))
        assert set(PUBLIC_NAMES) <= set(taylormeasure.__all__)
        for name in PUBLIC_NAMES:
            obj = namespace[name]
            # the object its defining module holds under the same name
            assert obj is getattr(sys.modules[obj.__module__], name)
            assert obj is getattr(taylormeasure, name)
        assert taylormeasure.montecarlo is sys.modules["taylormeasure.montecarlo"]

    def test_lazy_name_follows_its_module(self, monkeypatch):
        from taylormeasure import stochastic
        sentinel = object()
        monkeypatch.setattr(stochastic, "sample_stm_batch", sentinel)
        assert taylormeasure.sample_stm_batch is sentinel

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            taylormeasure.no_such_name
