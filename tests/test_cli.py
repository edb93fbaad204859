import inspect
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

import schlicht
from schlicht import circle_values, class_radius, local_univalence_radius, named_function
from schlicht.probe import circle_angles
from schlicht.cli import MAX_ANGLES, MAX_ATOMS, MAX_ORDER, MAX_SAMPLES, MAX_STAGES, main
from schlicht.errors import (
    DegenerateAtCenter,
    EvaluationSingularity,
    InvalidMeasure,
    InvalidParameter,
    NotCaratheodoryNormalized,
    OrderTooLow,
    SchlichtError,
    ValidationError,
)

CLI = [sys.executable, "-m", "schlicht"]


def run_cli(*args, stdin: str = ""):
    return subprocess.run(
        CLI + list(args), input=stdin, capture_output=True, text=True, timeout=120
    )


def build(name: str, order: int = 64) -> str:
    proc = run_cli("build", name, "--order", str(order))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestBuild:
    def test_koebe_coefficients_are_indices(self):
        payload = json.loads(build("koebe", 8))
        assert payload["order"] == 8
        assert payload["coeffs"] == [[float(k), 0.0] for k in range(9)]

    def test_unknown_tag_exits_two(self):
        proc = run_cli("build", "lemniscate")
        assert proc.returncode == 2

    def test_unknown_verb_exits_two(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_output_file(self, tmp_path):
        out = tmp_path / "f.json"
        proc = run_cli("build", "moebius", "--order", "4", "--output", str(out))
        assert proc.returncode == 0
        payload = json.loads(out.read_text())
        assert payload["coeffs"][1] == [2.0, 0.0]


class TestFunctional:
    def test_fekete_koebe_from_file(self, tmp_path):
        path = tmp_path / "koebe.json"
        path.write_text(build("koebe", 8))
        proc = run_cli("functional", "fekete", "--alpha", "0", "--input", str(path))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["value"] == 3.0
        assert report["bound"] == 3.0
        assert report["margin"] == 0.0

    def test_fekete_from_pipe(self):
        proc = run_cli("functional", "fekete", "--alpha", "0.5", stdin=build("koebe", 8))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert abs(report["value"] - 1.0) < 1e-12

    def test_hankel_koebe_three_by_three(self):
        proc = run_cli("functional", "hankel", "--q", "3", "--n", "1", "--function", "koebe")
        assert proc.returncode == 0
        value = json.loads(proc.stdout)["value"]
        assert abs(complex(value[0], value[1])) < 1e-10

    def test_bieberbach_koebe(self):
        proc = run_cli("functional", "bieberbach", "--function", "koebe")
        report = json.loads(proc.stdout)
        assert report["value"] == 0.0
        assert report["margin"] == 0.0

    def test_covering_koebe_extremal(self):
        proc = run_cli(
            "functional", "covering", "--xi", "-0.25", "--function", "koebe"
        )
        report = json.loads(proc.stdout)
        assert abs(report["value"] - 2.0) < 1e-9
        assert abs(report["margin"]) < 1e-9

    def test_covering_requires_xi(self):
        proc = run_cli("functional", "covering", "--function", "koebe")
        assert proc.returncode == 2

    def test_malformed_stdin_exits_two(self):
        proc = run_cli("functional", "bieberbach", stdin="not json {")
        assert proc.returncode == 2


@pytest.mark.parametrize(
    "verb, flag, value",
    [
        (("transform", "autom"), "--sigma", "-0.3+0.2j"),
        (("transform", "omit"), "--xi", "-0.25-0.1j"),
        (("functional", "covering"), "--xi", "-0.25-0.1j"),
    ],
)
def test_negative_complex_value_after_space(verb, flag, value):
    koebe = build("koebe", 8)
    spaced = run_cli(*verb, flag, value, stdin=koebe)
    joined = run_cli(*verb, f"{flag}={value}", stdin=koebe)
    assert spaced.returncode == joined.returncode == 0, spaced.stderr
    assert spaced.stdout == joined.stdout


class TestTransform:
    def test_double_libera_round_trip(self):
        once = run_cli("transform", "libera", stdin=build("koebe", 16))
        assert once.returncode == 0
        twice = run_cli("transform", "libera", stdin=once.stdout)
        assert twice.returncode == 0
        coeffs = json.loads(twice.stdout)["coeffs"]
        for k in range(1, 17):
            want = k * (2.0 / (k + 1.0)) ** 2
            assert abs(coeffs[k][0] - want) < 1e-12
            assert coeffs[k][1] == 0.0

    def test_bool_order_in_input_exits_two(self, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"order": True, "coeffs": [[0, 0], [1, 0]]}))
        proc = run_cli("transform", "rotate", "--theta", "0", "--input", str(path))
        assert proc.returncode == 2
        assert "nonnegative integer" in proc.stderr

    def test_convolve_requires_with(self):
        proc = run_cli("transform", "convolve", stdin=build("koebe", 8))
        assert proc.returncode == 2

    def test_non_utf8_input_exits_two(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(build("koebe", 4).encode().replace(b"{", b"{\xe9 ", 1))
        proc = run_cli("transform", "sqrt", "--input", str(path))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.splitlines() == [f"error: {path} is not UTF-8 text"]

    def test_non_utf8_stdin_exits_two(self, monkeypatch, capsys):
        # as a UTF-8 locale decodes it, without surrogateescape
        stdin = io.TextIOWrapper(io.BytesIO(b'{"order": 0, \xe9}'), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["transform", "sqrt"]) == 2
        assert capsys.readouterr().err == "error: stdin is not UTF-8 text\n"

    def test_linsum_endpoint(self, tmp_path):
        other = tmp_path / "identity.json"
        other.write_text(build("identity", 8))
        proc = run_cli(
            "transform", "linsum", "--t", "1", "--with", str(other),
            stdin=build("koebe", 8),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == json.loads(other.read_text())

    def test_iterate_rejects_class_s_input(self):
        proc = run_cli(
            "transform", "iterate", "--alpha", "1", "--n", "1", stdin=build("koebe", 8)
        )
        assert proc.returncode == 2

    def test_iterate_sigma_on_moebius(self):
        proc = run_cli(
            "transform", "iterate-sigma", "--sigma", "3", "--n", "2",
            stdin=build("moebius", 8),
        )
        assert proc.returncode == 0
        coeffs = json.loads(proc.stdout)["coeffs"]
        for k in range(1, 9):
            want = 2.0 * (3.0 / (3.0 + k)) * (2.0 / (2.0 + k))
            assert abs(coeffs[k][0] - want) < 1e-12


class TestCheck:
    def test_starlike_koebe(self):
        proc = run_cli(
            "check", "--class", "starlike", "--function", "koebe", "--r", "0.5"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload == {"class": "starlike", "holds": True, "r": 0.5}

    def test_injectivity_failure_still_exits_zero(self):
        proc = run_cli(
            "check", "--class", "injectivity", "--function", "thmA", "--r", "0.6"
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["holds"] is False

    def test_boundary_csv(self, tmp_path):
        path = tmp_path / "curve.csv"
        proc = run_cli(
            "check", "--class", "starlike", "--function", "koebe", "--r", "0.5",
            "--angles", "32", "--boundary", str(path),
        )
        assert proc.returncode == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "theta,re,im"
        assert len(lines) == 33
        theta, re, im = lines[1].split(",")
        assert float(theta) == 0.0
        # koebe at z = 0.5: 0.5/0.25 = 2
        assert abs(float(re) - 2.0) < 1e-9
        assert abs(float(im)) < 1e-12

    @pytest.mark.parametrize("kind, rows", [("injectivity", 512), ("local-univalence", 2048),
                                            ("starlike", 256)])
    def test_boundary_csv_at_the_default_angles(self, tmp_path, kind, rows, capsys):
        # without --angles the CSV has as many rows as the predicate sampled
        path = tmp_path / "curve.csv"
        argv = ["check", "--class", kind, "--function", "koebe", "--r", "0.5"]
        assert main(argv + ["--boundary", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True
        assert len(path.read_text().strip().splitlines()) == 1 + rows

    @pytest.mark.parametrize("r", [0.3, 0.9])
    def test_boundary_csv_is_the_probed_curve(self, tmp_path, r):
        # the CSV holds the samples the probe decided on, bit for bit
        path = tmp_path / "curve.csv"
        proc = run_cli(
            "check", "--class", "convex", "--function", "koebe", "--order", "64",
            "--r", str(r), "--angles", "64", "--boundary", str(path),
        )
        assert proc.returncode == 0
        rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
        theta = np.array([float(t) for t, _, _ in rows])
        values = np.array([complex(float(re), float(im)) for _, re, im in rows])
        assert np.array_equal(theta, circle_angles(64))
        assert np.array_equal(values, circle_values(named_function("koebe", 64).series, r, 64))


class TestRadius:
    def test_local_univalence_named_function(self):
        proc = run_cli(
            "radius", "local-univalence", "--function", "thmA", "--tol", "1e-6"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        mid = 0.5 * (payload["lo"] + payload["hi"])
        assert abs(mid - (math.sqrt(2.0) - 1.0)) < 1e-6
        assert payload["capped"] is False

    def test_predicate_flag_spelling(self):
        proc = run_cli(
            "radius", "--predicate", "convex", "--function", "koebe", "--tol", "1e-4"
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        mid = 0.5 * (payload["lo"] + payload["hi"])
        assert abs(mid - (2.0 - math.sqrt(3.0))) < 1e-4

    def test_function_and_input_conflict(self):
        proc = run_cli(
            "radius", "starlike", "--function", "koebe", "--input", "x.json"
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exits_two(self, tol, capsys):
        argv = ["radius", "convex", "--function", "koebe", "--order", "16", "--tol", tol]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "tol must be a finite real number" in out.err

    @pytest.mark.parametrize(
        "argv, solve",
        [
            (["convex", "--order", "16"], lambda f: class_radius("convex", f)),
            (["local-univalence", "--angles", "64"],
             lambda f: local_univalence_radius(f, n_angles=64)),
        ],
        ids=["convex", "local-univalence"],
    )
    def test_trace_is_the_library_trace(self, argv, solve, capsys):
        base = ["radius", argv[0], "--function", "thmA"] + argv[1:]
        assert main(base) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main(base + ["--trace"]) == 0
        traced = json.loads(capsys.readouterr().out)
        order = int(argv[argv.index("--order") + 1]) if "--order" in argv else 64
        result = solve(named_function("thmA", order).series)
        assert traced.pop("trace") == [list(step) for step in result.trace]
        assert traced.pop("monotone") is result.monotone is True
        assert traced == plain == result.to_dict()

    def test_degenerate_probe_exits_one(self):
        doc = json.dumps(
            {"order": 2, "coeffs": [[0.0, 0.0], [1.0, 0.0], [5000.0, 0.0]]}
        )
        proc = run_cli("radius", "local-univalence", stdin=doc)
        assert proc.returncode == 1
        assert "error:" in proc.stderr


#: f' and f overflow to inf on every circle
OVERFLOW = json.dumps({"order": 3, "coeffs": [[0, 0], [1, 0], [1e308, 0], [1e308, 0]]})
#: a_2 = a_3 = a_4 = 1e200
HUGE = json.dumps({"order": 4, "coeffs": [[0, 0], [1, 0]] + [[1e200, 0]] * 3})


@pytest.mark.parametrize(
    "argv, stdin, code",
    [
        (["radius", "local-univalence"], OVERFLOW, 1),
        (["check", "--class", "injectivity", "--r", "0.99"], OVERFLOW, 1),
        (["functional", "hankel", "--q", "2", "--n", "1"], HUGE, 1),
        (["functional", "fekete", "--alpha", "0.5"], HUGE, 1),
        (["transform", "omit", "--xi", "nan"], OVERFLOW, 2),
        (["transform", "autom", "--sigma", "nan"], OVERFLOW, 2),
        (["functional", "covering", "--xi", "nan"], OVERFLOW, 2),
        # a computed series or report that overflows is a failed
        # computation; a non-finite coefficient read from JSON is bad input
        (["transform", "sqrt"], HUGE, 1),
        (["transform", "convolve", "--with", "{tmp}/huge.json"], HUGE, 1),
        (["functional", "covering", "--xi", "1e-320", "--function", "koebe"], "", 1),
        (["transform", "sqrt"], '{"order": 1, "coeffs": [[0, 0], [Infinity, 0]]}', 2),
        (["transform", "sqrt"], '{"order": 1, "coeffs": [[0, 0], [1e400, 0]]}', 2),
    ],
)
def test_non_finite_gives_one_error_line(argv, stdin, code, tmp_path):
    # no NaN or Infinity on stdout, no warning or traceback on stderr
    (tmp_path / "huge.json").write_text(HUGE, encoding="utf-8")
    proc = run_cli(*[a.replace("{tmp}", str(tmp_path)) for a in argv], stdin=stdin)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")


class TestReferenceFunctionFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--class", "starlike", "--r", "0.5"],
            ["check", "--class", "local-univalence", "--r", "0.5"],
            ["radius", "convex"],
            ["radius", "--predicate", "injectivity"],
        ],
    )
    def test_refused_before_the_file_is_read(self, argv, tmp_path, capsys):
        # the --g file does not exist: the refusal names the flag, not the file
        args = argv + ["--function", "koebe", "--order", "8", "--g", str(tmp_path / "none.json")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "does not read --g" in err

    @pytest.mark.parametrize("argv", [["check", "--class", "quasi-convex", "--r", "0.2"],
                                      ["radius", "close-to-convex"]])
    def test_required_where_read(self, argv, capsys):
        assert main(argv + ["--function", "koebe", "--order", "8"]) == 2
        assert "requires --g" in capsys.readouterr().err


class TestSample:
    def test_deterministic_bytes(self):
        a = run_cli("sample", "--seed", "7", "--atoms", "3", "--order", "16")
        b = run_cli("sample", "--seed", "7", "--atoms", "3", "--order", "16")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_measure_output(self):
        proc = run_cli("sample", "--seed", "3", "--atoms", "4", "--measure")
        assert proc.returncode == 0
        atoms = json.loads(proc.stdout)["atoms"]
        assert len(atoms) == 4
        assert abs(sum(mu for _, mu in atoms) - 1.0) < 1e-12

    def test_atom_count_validated(self):
        proc = run_cli("sample", "--atoms", "0")
        assert proc.returncode == 2


class TestReport:
    def test_hundred_samples_clean(self):
        proc = run_cli("report", "--seed", "0", "--samples", "100")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["total_violations"] == 0
        assert set(payload["checks"]) == {
            "coefficient_bound",
            "pommerenke",
            "ratio_positive",
            "bounded_turning",
            "starlike",
            "close_to_convex",
        }

    def test_single_atom_margins_exactly_zero(self):
        proc = run_cli("report", "--seed", "0", "--samples", "1")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["checks"]["coefficient_bound"]["worst_margin"] == 0.0

    def test_byte_identical_repeats(self):
        a = run_cli("report", "--seed", "5", "--samples", "20")
        b = run_cli("report", "--seed", "5", "--samples", "20")
        assert a.stdout == b.stdout
        assert a.stdout.endswith("\n")


@pytest.mark.parametrize(
    "verb", [["report", "--samples", "2"], ["sample"], ["sample", "--measure"]],
    ids=" ".join,
)
def test_negative_seed_exits_two(verb, capsys):
    assert main(verb + ["--seed", "-1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "seed must be a nonnegative integer" in out.err


class TestInputCaps:
    """--order, --samples and --angles are capped before any work is
    done.  Only cap + 1 is tried: a huge value would allocate or run for
    hours if the cap were missing."""

    @pytest.mark.parametrize(
        "verb",
        [
            ["build", "koebe"],
            ["check", "--class", "starlike", "--function", "koebe", "--r", "0.5"],
            ["radius", "convex", "--function", "koebe"],
            ["functional", "bieberbach", "--function", "koebe"],
            ["sample"],
            ["report", "--samples", "1"],
        ],
        ids=lambda verb: verb[0],
    )
    def test_order_above_cap_exits_two(self, verb, capsys):
        assert main(verb + ["--order", str(MAX_ORDER + 1)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"--order must be at most {MAX_ORDER}" in out.err

    def test_samples_above_cap_exits_two(self, capsys):
        assert main(["report", "--samples", str(MAX_SAMPLES + 1)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"--samples must be at most {MAX_SAMPLES}" in out.err

    @pytest.mark.parametrize(
        "verb",
        [
            ["check", "--class", "starlike", "--function", "koebe", "--r", "0.5"],
            ["radius", "convex", "--function", "koebe"],
            ["radius", "local-univalence", "--function", "koebe"],
        ],
        ids=lambda verb: "-".join(verb[:2]),
    )
    def test_angles_above_cap_exits_two(self, verb, capsys):
        assert main(verb + ["--angles", str(MAX_ANGLES + 1)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"--angles must be at most {MAX_ANGLES}" in out.err

    @pytest.mark.parametrize(
        "argv, flag, cap",
        [
            (["sample", "--atoms"], "--atoms", MAX_ATOMS),
            (["sample", "--measure", "--atoms"], "--atoms", MAX_ATOMS),
            (["transform", "iterate", "--alpha", "1", "--n"], "--n", MAX_STAGES),
            (["transform", "iterate-sigma", "--sigma", "1e9", "--n"], "--n", MAX_STAGES),
        ],
        ids=["sample", "sample-measure", "iterate", "iterate-sigma"],
    )
    def test_counts_above_cap_exit_two(self, argv, flag, cap, capsys):
        # checked before stdin is read or any atom is drawn
        assert main(argv + [str(cap + 1)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"{flag} must be at most {cap}" in out.err


def test_exit_two_for_every_validation_error():
    for exc in (InvalidParameter, OrderTooLow, NotCaratheodoryNormalized, InvalidMeasure):
        assert issubclass(exc, ValidationError)
    for exc in (DegenerateAtCenter, EvaluationSingularity):
        assert issubclass(exc, SchlichtError) and not issubclass(exc, ValidationError)


class TestAngleCount:
    @pytest.mark.parametrize("angles", [["--angles", "0"], ["--angles=-4"], ["--angles", "3"]])
    def test_local_univalence_with_too_few_angles_exits_two(self, angles, capsys):
        argv = ["radius", "local-univalence", "--function", "koebe", "--order", "8"]
        assert main(argv + angles) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "Traceback" not in out.err


def test_fft_stays_unimported_outside_the_probes():
    """build, transform, sample and functional never sum a series on a
    circle, so they do not pay for importing numpy.fft."""
    script = """if True:
        import contextlib, io, sys
        import schlicht, schlicht.cli
        assert "numpy.fft" not in sys.modules, "numpy.fft imported by the package"
        koebe = io.StringIO()
        with contextlib.redirect_stdout(koebe):
            schlicht.cli.main(["build", "koebe", "--order", "8"])
        for argv in (["transform", "rotate", "--theta", "0.5"], ["functional", "bieberbach"]):
            sys.stdin = io.StringIO(koebe.getvalue())
            with contextlib.redirect_stdout(io.StringIO()):
                assert schlicht.cli.main(argv) == 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert schlicht.cli.main(["sample", "--seed", "1"]) == 0
        assert "numpy.fft" not in sys.modules, "numpy.fft imported by a verb"
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_random_stays_unimported_outside_the_draws():
    """Only the verbs that draw pay for importing numpy.random: build,
    transform, functional, check and radius leave it unimported, and
    sample imports it (caratheodory._seed_words_sequence)."""
    script = """if True:
        import contextlib, io, sys
        import schlicht, schlicht.cli
        assert "numpy.random" not in sys.modules, "numpy.random imported by the package"
        koebe = io.StringIO()
        with contextlib.redirect_stdout(koebe):
            schlicht.cli.main(["build", "koebe", "--order", "8"])
        for argv in (["transform", "autom", "--sigma", "0.3+0.2j"],
                     ["transform", "omit", "--xi", "10"], ["functional", "bieberbach"],
                     ["check", "--class", "starlike", "--r", "0.3"], ["radius", "starlike"]):
            sys.stdin = io.StringIO(koebe.getvalue())
            with contextlib.redirect_stdout(io.StringIO()):
                assert schlicht.cli.main(argv) == 0, argv
        assert "numpy.random" not in sys.modules, "numpy.random imported by a verb"
        with contextlib.redirect_stdout(io.StringIO()):
            assert schlicht.cli.main(["sample", "--seed", "1"]) == 0
        assert "numpy.random" in sys.modules, "sample drew without numpy.random"
    """
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


#: The public names of the package, submodules aside.  A name joins this
#: list in the same change that gives it a caller.
PUBLIC_NAMES = [
    "Bernardi", "Conjugation", "DEFAULT_ORDER", "Dilation", "DiskAutomorphism",
    "HerglotzMeasure", "JanowskiParams", "Libera", "LinearSum", "MarginReport",
    "NamedFunction", "NormalizedSeries", "OmittedValue", "RadiusResult", "RangeCompose",
    "Rotation", "SchlichtError", "SchwarzFunction", "SquareRoot", "TruncatedSeries",
    "alexander_forward", "alexander_inverse", "apply", "bernardi", "bieberbach_check",
    "check_coefficient_bound", "check_pommerenke", "circle_values", "class_predicate",
    "class_radius", "compose", "convex_extremal", "convolve", "covering_check",
    "differentiate", "divide", "evaluate", "evaluate_many", "fekete_szego",
    "from_bounded_turning", "from_close_to_convex", "from_ratio_positive", "from_starlike",
    "h_to_schwarz", "hankel", "herglotz_to_series", "identity", "injectivity_probe",
    "iterate_alpha", "iterate_sigma", "janowski", "koebe", "libera", "linear_sum",
    "local_univalence_radius", "moebius", "multiply", "named_function", "partial_sum",
    "pommerenke_extremal", "preserve", "principal_log", "principal_power", "radius_solve",
    "ratio_extremal", "sample", "sample_measure", "schwarz_checks", "schwarz_to_h",
    "series_from_dict", "series_to_dict", "sqrt_even_transform", "turning_extremal",
]


def test_public_surface_is_pinned():
    names = sorted(n for n in vars(schlicht)
                   if not n.startswith("_") and not inspect.ismodule(getattr(schlicht, n)))
    assert len(PUBLIC_NAMES) == 73
    assert names == PUBLIC_NAMES

